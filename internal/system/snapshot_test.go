package system

import (
	"strings"
	"testing"
)

func TestCopyBitsDenseOfBitsRoundTrip(t *testing.T) {
	idx := broomSystem(t, 2, 10, 7, 3).Index()
	s := idx.NewDense()
	for id := 0; id < idx.NumPoints(); id += 3 {
		s.Add(id)
	}
	words := s.CopyBits()
	got, err := idx.DenseOfBits(words)
	if err != nil {
		t.Fatalf("DenseOfBits: %v", err)
	}
	if !got.Equal(s) {
		t.Fatal("round trip changed the set")
	}
	// Mutating the exported words must not reach the rebuilt set.
	words[0] = ^uint64(0)
	if !got.Equal(s) {
		t.Fatal("DenseOfBits aliased the caller's words")
	}
}

func TestDenseOfBitsRejectsBadWords(t *testing.T) {
	idx := broomSystem(t, 2, 10, 7, 3).Index()
	if _, err := idx.DenseOfBits(make([]uint64, idx.Words()+1)); err == nil {
		t.Fatal("wrong word count accepted")
	}
	if idx.NumPoints()%64 != 0 {
		words := make([]uint64, idx.Words())
		words[len(words)-1] = ^uint64(0) // bits beyond the universe
		if _, err := idx.DenseOfBits(words); err == nil {
			t.Fatal("tail bits beyond the universe accepted")
		}
	}
}

func TestCellsBuiltPeeks(t *testing.T) {
	idx := broomSystem(t, 2, 12, 5, 3).Index()
	if idx.CellsBuilt(0) != nil {
		t.Fatal("CellsBuilt returned a partition before any build")
	}
	built := idx.Cells(0, 1)
	if idx.CellsBuilt(0) != built {
		t.Fatal("CellsBuilt did not return the built partition")
	}
	if idx.CellsBuilt(1) != nil {
		t.Fatal("building agent 0 leaked a partition for agent 1")
	}
	if idx.CellsBuilt(-1) != nil || idx.CellsBuilt(99) != nil {
		t.Fatal("out-of-range agent returned a partition")
	}
}

// TestAdoptCellsRoundTrip exports each agent's partition from one copy
// of a system and adopts it into a freshly built twin, requiring the
// adopted partition, member lists included, to be the cells.
func TestAdoptCellsRoundTrip(t *testing.T) {
	src := broomSystem(t, 3, 40, 6, 4).Index()
	dst := broomSystem(t, 3, 40, 6, 4).Index()
	for i := 0; i < 3; i++ {
		numCells, cellOf := src.Cells(AgentID(i), 1).Table()
		if err := dst.AdoptCells(AgentID(i), numCells, cellOf); err != nil {
			t.Fatalf("agent %d: AdoptCells: %v", i, err)
		}
		got := dst.CellsBuilt(AgentID(i))
		if got == nil {
			t.Fatalf("agent %d: adoption did not publish a partition", i)
		}
		checkCells(t, "adopted", dst, AgentID(i), got)
	}
}

// TestAdoptCellsKeepsExisting: adopting over an already-built partition
// keeps the built one (they are provably identical).
func TestAdoptCellsKeepsExisting(t *testing.T) {
	idx := broomSystem(t, 2, 12, 5, 3).Index()
	built := idx.Cells(0, 1)
	numCells, cellOf := built.Table()
	if err := idx.AdoptCells(0, numCells, cellOf); err != nil {
		t.Fatalf("AdoptCells: %v", err)
	}
	if idx.CellsBuilt(0) != built {
		t.Fatal("adoption replaced an already-built partition")
	}
}

func TestAdoptCellsRejectsBadTables(t *testing.T) {
	mk := func() (int, []int32, *Index) {
		idx := broomSystem(t, 2, 12, 5, 3).Index()
		numCells, cellOf := idx.Cells(0, 1).Table()
		fresh := broomSystem(t, 2, 12, 5, 3).Index()
		return numCells, cellOf, fresh
	}

	cases := []struct {
		name    string
		breakIt func(numCells int, cellOf []int32) (int, []int32)
		errHas  string
	}{
		{"shortTable", func(n int, c []int32) (int, []int32) { return n, c[:len(c)-1] }, "entries"},
		{"outOfRange", func(n int, c []int32) (int, []int32) { c[3] = int32(n); return n, c }, "of"},
		{"negative", func(n int, c []int32) (int, []int32) { c[3] = -1; return n, c }, "of"},
		{"notFirstOccurrence", func(n int, c []int32) (int, []int32) {
			// Swap cell numbers 0 and 1 everywhere: a valid partition,
			// wrong numbering order.
			for i, v := range c {
				if v == 0 {
					c[i] = 1
				} else if v == 1 {
					c[i] = 0
				}
			}
			return n, c
		}, "first-occurrence"},
		{"emptyCell", func(n int, c []int32) (int, []int32) { return n + 1, c }, "occur"},
		{"wrongGrouping", func(n int, c []int32) (int, []int32) {
			// Move one non-representative point into a different
			// existing cell: well-formed numbering, wrong partition.
			for id := len(c) - 1; id > 0; id-- {
				if c[id] != c[0] {
					c[id] = c[0]
					return n, c
				}
			}
			return n, c
		}, "local state"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			numCells, cellOf, fresh := mk()
			n2, c2 := tc.breakIt(numCells, cellOf)
			err := fresh.AdoptCells(0, n2, c2)
			if err == nil {
				t.Fatal("bad table accepted")
			}
			if !strings.Contains(err.Error(), tc.errHas) {
				t.Fatalf("error %q does not mention %q", err, tc.errHas)
			}
			if fresh.CellsBuilt(0) != nil {
				t.Fatal("rejected table still published a partition")
			}
		})
	}

	t.Run("badAgent", func(t *testing.T) {
		numCells, cellOf, fresh := mk()
		if err := fresh.AdoptCells(7, numCells, cellOf); err == nil {
			t.Fatal("out-of-range agent accepted")
		}
	})
}

// TestAdoptCellsRejectsForeignTable: a structurally valid table from a
// different system (merged cells that don't match this system's locals)
// must be refused — this is the check that stops a snapshot written for
// one system from poisoning another.
func TestAdoptCellsRejectsForeignTable(t *testing.T) {
	// Same shape, different bucket count → different partition.
	foreign := broomSystem(t, 2, 12, 5, 2).Index()
	target := broomSystem(t, 2, 12, 5, 3).Index()
	if foreign.NumPoints() != target.NumPoints() {
		t.Fatalf("fixture drift: %d vs %d points", foreign.NumPoints(), target.NumPoints())
	}
	numCells, cellOf := foreign.Cells(0, 1).Table()
	if err := target.AdoptCells(0, numCells, cellOf); err == nil {
		t.Fatal("foreign cell table accepted")
	}
	if target.CellsBuilt(0) != nil {
		t.Fatal("rejected foreign table still published a partition")
	}
}
