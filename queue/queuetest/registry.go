package queuetest

import (
	"repro/queue"
	"repro/queue/registry"
)

// FromRegistry adapts a registry builder into a Factory, so the whole
// conformance suite can be table-driven over registry.Names().
func FromRegistry(b registry.Builder) Factory {
	return func(producers int) (func(int) queue.Queue[uint64], func(int) queue.Queue[uint64]) {
		inst := b(registry.Config{Producers: producers})
		return func(i int) queue.Queue[uint64] { return inst.ProducerView(i) },
			func(i int) queue.Queue[uint64] { return inst.ConsumerView(i) }
	}
}

// FromRegistryConfig adapts a registry builder into a BatchFactory, using
// cfg as the build template: the suite overwrites Producers per check and
// leaves the rest (Shards, BatchHint, Recorder) as given — the way to pin
// an explicit shard count so multi-shard paths get covered even when
// GOMAXPROCS is 1.
func FromRegistryConfig(b registry.Builder, cfg registry.Config) BatchFactory {
	return func(producers int) (func(int) queue.BatchQueue[uint64], func(int) queue.BatchQueue[uint64]) {
		c := cfg
		c.Producers = producers
		inst := b(c)
		return inst.ProducerView, inst.ConsumerView
	}
}
