package correct

import (
	"testing"

	"probedis/internal/analysis"
	"probedis/internal/superset"
)

// assertNoCommitIntoData fails for every committed instruction start whose
// forced successor lands on a Data byte or mid-instruction — the
// consistency property retraction establishes, which gap fill (running
// after retraction) must preserve.
func assertNoCommitIntoData(t *testing.T, g *superset.Graph, out *Outcome) {
	t.Helper()
	var succs []int
	for off := 0; off < g.Len(); off++ {
		if !out.InstStart[off] {
			continue
		}
		succs = g.ForcedSuccs(succs[:0], off)
		for _, s := range succs {
			if s < 0 {
				continue // static escapes are viability's job
			}
			if out.State[s] == Data {
				t.Errorf("committed instruction at +%d has forced successor +%d classified Data", off, s)
			} else if out.Owner[s] != -1 && !out.InstStart[s] {
				t.Errorf("committed instruction at +%d has forced successor +%d inside another instruction", off, s)
			}
		}
	}
}

// TestNopTilesEmptyGap: a zero-length range must not count as NOP padding
// — the old vacuous-truth answer let an empty gap flip fillGap's
// classification to code-like.
func TestNopTilesEmptyGap(t *testing.T) {
	g, v := buildGraph([]byte{0x90, 0x90, 0xc3})
	c := newCorrector(g, v)
	defer c.release()
	if c.nopTiles(1, 1) {
		t.Error("nopTiles reported an empty range as NOP padding")
	}
	if !c.nopTiles(0, 2) {
		t.Error("nopTiles rejected a genuine NOP run")
	}
}

// TestGapFillDerailAtSectionEnd: a gap ending exactly at the section end
// whose tail derails to data must not leave earlier gap tiles branching
// into that data. Layout: ret | jmp +3 | 3 invalid bytes | ret — the gap
// is [1,7), the jmp at +1 tiles first (target +6 still Unknown), then the
// invalid bytes derail the rest of the gap — including +6 — to data,
// invalidating the already-committed jmp.
func TestGapFillDerailAtSectionEnd(t *testing.T) {
	code := []byte{0xc3, 0xeb, 0x03, 0x06, 0x06, 0x06, 0xc3}
	g, v := buildGraph(code)
	if !v[1] {
		t.Fatal("precondition: jmp at +1 should be statically viable")
	}
	if v[3] {
		t.Fatal("precondition: invalid byte at +3 should not be viable")
	}
	scores := []float64{1, 1, 1, 1, 1, 1, 1} // gap start scores code-like
	out := Run(g, v, []analysis.Hint{
		{Kind: analysis.HintCode, Off: 0, Prio: analysis.PrioProof},
	}, Options{Scores: scores})
	assertNoCommitIntoData(t, g, out)
	if out.InstStart[1] {
		t.Error("jmp at +1 still committed although its target derailed to data")
	}
}

// TestGapFillNopPaddingAbuttingData: a pure-NOP gap abutting a committed
// data region (e.g. jump-table bytes) cannot be padding — the final NOP
// would fall through into data. The old code committed the leading NOPs,
// derailed on the last one, and left the run falling into the data bytes.
func TestGapFillNopPaddingAbuttingData(t *testing.T) {
	code := []byte{0xc3, 0x90, 0x90, 0x90, 'A', 'A', 'A', 'A', 0xc3}
	g, v := buildGraph(code)
	scores := make([]float64, len(code))
	for i := range scores {
		scores[i] = -3 // only the NOP-padding rule can make the gap code-like
	}
	out := Run(g, v, []analysis.Hint{
		{Kind: analysis.HintCode, Off: 0, Prio: analysis.PrioProof},
		{Kind: analysis.HintData, Off: 4, Len: 4, Prio: analysis.PrioProof},
		{Kind: analysis.HintCode, Off: 8, Prio: analysis.PrioProof},
	}, Options{Scores: scores})
	assertNoCommitIntoData(t, g, out)
	for i := 1; i < 4; i++ {
		if out.State[i] != Data {
			t.Errorf("padding byte +%d = %v, want Data (run falls into data)", i, out.State[i])
		}
	}
}

// TestGapFillNopPaddingBeforeExtern: the positive twin — NOP padding whose
// final fallthrough leaves the section into a registered extern range is
// legitimate never-executed code and must stay tiled.
func TestGapFillNopPaddingBeforeExtern(t *testing.T) {
	code := []byte{0xc3, 0x90, 0x90, 0x90}
	g := superset.Build(code, 0x1000)
	g.SetExtern([]superset.Range{{Start: 0x1004, End: 0x1010}})
	v := viability(g)
	if !v[3] {
		t.Fatal("precondition: final NOP should be viable via the extern fallthrough")
	}
	scores := []float64{1, -3, -3, -3}
	out := Run(g, v, []analysis.Hint{
		{Kind: analysis.HintCode, Off: 0, Prio: analysis.PrioProof},
	}, Options{Scores: scores})
	assertNoCommitIntoData(t, g, out)
	for i := 1; i < 4; i++ {
		if !out.InstStart[i] {
			t.Errorf("padding NOP at +%d not tiled as code", i)
		}
	}
}
