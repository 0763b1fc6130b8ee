package lru

import "testing"

func TestAddOnPresentKeyRefreshesAndReturnsFalse(t *testing.T) {
	s := New(2)
	if !s.Add("a") || !s.Add("b") {
		t.Fatal("first Add of a key must report it new")
	}
	if s.Add("a") {
		t.Error("Add of a present key reported it new")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d after a duplicate Add, want 2", s.Len())
	}
	// The duplicate Add refreshed "a", so "b" is now the eviction victim.
	s.Add("c")
	if s.Add("a") {
		t.Error("refreshed key was evicted ahead of the stale one")
	}
	if !s.Add("b") {
		t.Error("stale key survived an eviction it should have lost")
	}
}

func TestEvictionOrderAtCap(t *testing.T) {
	s := New(3)
	for _, k := range []string{"a", "b", "c", "d", "e"} {
		s.Add(k)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want the cap 3", s.Len())
	}
	// Oldest first out: a and b are gone, c, d and e remain. Add is the
	// only membership probe, so the survivors are checked first — a probe
	// that finds its key absent inserts it and evicts.
	for _, k := range []string{"e", "d", "c"} {
		if s.Add(k) {
			t.Errorf("%q was evicted, want it retained", k)
		}
	}
	for _, k := range []string{"a", "b"} {
		if !s.Add(k) {
			t.Errorf("%q is still present, want it evicted", k)
		}
	}
}

func TestRemoveFreesTheSlot(t *testing.T) {
	s := New(2)
	s.Add("a")
	s.Add("b")
	if !s.Remove("a") {
		t.Error("Remove of a present key reported it absent")
	}
	if s.Remove("a") {
		t.Error("second Remove reported the key still present")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d after Remove, want 1", s.Len())
	}
	// The freed slot takes a new key without evicting the survivor, and
	// the removed key counts as new again.
	if !s.Add("c") {
		t.Error("Add into the freed slot reported the key present")
	}
	if s.Add("b") {
		t.Error("filling the freed slot evicted the surviving key")
	}
	if !s.Add("a") {
		t.Error("a removed key must be new when added again")
	}
}
