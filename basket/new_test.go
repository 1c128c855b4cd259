package basket

import "testing"

// These tests keep the names they had when the scalable and partitioned
// baskets had positional constructors; they check the same validation,
// clamping and behaviour through New, the one constructor left.

func TestDeprecatedNewScalable(t *testing.T) {
	b := New[int](WithCapacity(4), WithBound(2))
	for id := 0; id < 4; id++ {
		if !b.Insert(id, id) {
			t.Fatalf("Insert(%d) refused on a fresh basket", id)
		}
	}
	// bound=2: extraction sweeps only cells [0,2).
	seen := map[int]bool{}
	for {
		v, ok := b.Extract()
		if !ok {
			break
		}
		seen[v] = true
	}
	if len(seen) != 2 || !seen[0] || !seen[1] {
		t.Fatalf("bound=2 extraction returned %v, want {0,1}", seen)
	}
}

func TestDeprecatedNewScalableClampsBound(t *testing.T) {
	// Out-of-range bounds fall back to the capacity, as documented.
	for _, bound := range []int{0, -1, 99} {
		b := New[int](WithCapacity(3), WithBound(bound)).(*Scalable[int])
		if b.bound != 3 {
			t.Errorf("WithBound(%d) on capacity 3: bound = %d, want 3", bound, b.bound)
		}
	}
}

func TestDeprecatedNewScalableBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(WithCapacity(-1)) did not panic")
		}
	}()
	New[int](WithCapacity(-1))
}

func TestDeprecatedNewPartitioned(t *testing.T) {
	b := New[int](WithCapacity(6), WithPartitions(3)).(*Partitioned[int])
	if got := len(b.parts); got != 3 {
		t.Fatalf("WithCapacity(6), WithPartitions(3) built %d partitions, want 3", got)
	}
	for id := 0; id < 6; id++ {
		if !b.Insert(id, id) {
			t.Fatalf("Insert(%d) refused on a fresh basket", id)
		}
	}
	seen := map[int]bool{}
	for {
		v, ok := b.Extract()
		if !ok {
			break
		}
		if seen[v] {
			t.Fatalf("duplicate element %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 6 {
		t.Fatalf("extracted %d of 6 elements", len(seen))
	}
	if !b.Empty() {
		t.Fatal("drained partitioned basket not Empty")
	}
}

func TestDeprecatedNewPartitionedClampsK(t *testing.T) {
	// k is clamped to the bound; k <= 1 selects the single-counter
	// scalable basket.
	if got := len(New[int](WithCapacity(4), WithBound(2), WithPartitions(8)).(*Partitioned[int]).parts); got != 2 {
		t.Errorf("k=8,bound=2 built %d partitions, want 2", got)
	}
	for _, k := range []int{0, 1} {
		if _, ok := New[int](WithCapacity(4), WithPartitions(k)).(*Scalable[int]); !ok {
			t.Errorf("WithPartitions(%d) did not select the scalable basket", k)
		}
	}
}

func TestDeprecatedNewPartitionedBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(WithCapacity(-1), WithPartitions(2)) did not panic")
		}
	}()
	New[int](WithCapacity(-1), WithPartitions(2))
}
