package analysis

import (
	"testing"

	"probedis/internal/superset"
	"probedis/internal/synth"
)

func genBin(t testing.TB, seed int64, p synth.Profile, n int) (*synth.Binary, *superset.Graph) {
	t.Helper()
	b, err := synth.Generate(synth.Config{Seed: seed, Profile: p, NumFuncs: n})
	if err != nil {
		t.Fatal(err)
	}
	return b, superset.Build(b.Code, b.Base)
}

// viability is ViabilityRanges over the one-range plan: the whole section
// as a single shard, which needs no cascade sweep.
func viability(g *superset.Graph) []bool {
	v, _ := ViabilityRanges(nil, g, [][2]int{{0, g.Len()}}, nil)
	return v
}

// callTargetHints counts and emits call-target hints over the whole
// section as one range.
func callTargetHints(g *superset.Graph, viable []bool) []Hint {
	callers := make([]int32, g.Len())
	CallTargetCountsRange(g, viable, 0, g.Len(), callers)
	return CallTargetHintsOf(callers)
}

// TestViabilityCoversTruth: every ground-truth instruction must be viable
// (viability is a sound filter — it may keep junk but must never reject
// real code).
func TestViabilityCoversTruth(t *testing.T) {
	for _, p := range synth.DefaultProfiles {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			b, g := genBin(t, 31, p, 40)
			viable := viability(g)
			for off, s := range b.Truth.InstStart {
				if s && !viable[off] {
					t.Fatalf("true instruction at +%#x marked non-viable (op %v)",
						off, g.Info[off].Op)
				}
			}
			// And it must prune something (data offsets that derail).
			pruned := 0
			for off, v := range viable {
				if !v && b.Truth.Classes[off].IsData() {
					pruned++
				}
			}
			if pruned == 0 {
				t.Error("viability pruned no data offsets")
			}
		})
	}
}

func TestViabilityPoisoning(t *testing.T) {
	// nop; nop; <invalid 0x06>: offsets 0 and 1 fall through into the
	// invalid byte and must be non-viable.
	g := superset.Build([]byte{0x90, 0x90, 0x06}, 0x1000)
	v := viability(g)
	if v[0] || v[1] || v[2] {
		t.Errorf("viability = %v, want all false", v)
	}
	// ret before the invalid byte stops the poison.
	g = superset.Build([]byte{0x90, 0xc3, 0x06}, 0x1000)
	v = viability(g)
	if !v[0] || !v[1] || v[2] {
		t.Errorf("viability = %v, want [true true false]", v)
	}
}

func TestViabilityLoopIsViable(t *testing.T) {
	// A self-loop (jmp -2) must remain viable (greatest fixpoint).
	g := superset.Build([]byte{0xeb, 0xfe}, 0x1000)
	if v := viability(g); !v[0] {
		t.Error("self-loop marked non-viable")
	}
}

// TestJumpTablePrecision: every discovered table must lie within true
// jump-table bytes, and every reported target must be a true instruction.
func TestJumpTablePrecision(t *testing.T) {
	b, g := genBin(t, 33, synth.ProfileComplex, 60)
	viable := viability(g)
	tables := FindJumpTablesRange(g, viable, 0, g.Len(), nil)
	if len(tables) == 0 {
		t.Fatal("no jump tables found in complex corpus")
	}
	for _, jt := range tables {
		for i := jt.Table; i < jt.Table+jt.Entries*jt.EntrySz; i++ {
			if b.Truth.Classes[i] != synth.ClassJumpTable {
				t.Fatalf("table at +%#x: byte +%#x is %v, not jumptable",
					jt.Table, i, b.Truth.Classes[i])
			}
		}
		for _, tgt := range jt.Targets {
			if !b.Truth.InstStart[tgt] {
				t.Fatalf("table at +%#x: target +%#x is not an instruction", jt.Table, tgt)
			}
		}
	}
}

// TestJumpTableRecall: most true jump-table bytes should be covered.
func TestJumpTableRecall(t *testing.T) {
	b, g := genBin(t, 34, synth.ProfileComplex, 80)
	viable := viability(g)
	covered := make([]bool, g.Len())
	for _, jt := range FindJumpTablesRange(g, viable, 0, g.Len(), nil) {
		for i := jt.Table; i < jt.Table+jt.Entries*jt.EntrySz; i++ {
			covered[i] = true
		}
	}
	var tot, got int
	for i, c := range b.Truth.Classes {
		if c == synth.ClassJumpTable {
			tot++
			if covered[i] {
				got++
			}
		}
	}
	if tot == 0 {
		t.Fatal("corpus has no jump tables")
	}
	recall := float64(got) / float64(tot)
	t.Logf("jump-table byte recall: %d/%d = %.3f", got, tot, recall)
	if recall < 0.85 {
		t.Errorf("jump-table recall too low: %.3f", recall)
	}
}

// TestCallTargetsAreFunctions: strong call-target hints must point at true
// instruction starts.
func TestCallTargetsAreFunctions(t *testing.T) {
	b, g := genBin(t, 35, synth.ProfileO2, 60)
	viable := viability(g)
	hints := callTargetHints(g, viable)
	if len(hints) == 0 {
		t.Fatal("no call-target hints")
	}
	strong, wrong := 0, 0
	for _, h := range hints {
		if h.Prio != PrioStrong {
			continue
		}
		strong++
		if !b.Truth.InstStart[h.Off] {
			wrong++
		}
	}
	if strong == 0 {
		t.Fatal("no multi-caller targets")
	}
	if float64(wrong)/float64(strong) > 0.02 {
		t.Errorf("%d/%d strong call targets are not instructions", wrong, strong)
	}
}

func TestPrologueHintsPrecision(t *testing.T) {
	b, g := genBin(t, 36, synth.ProfileO0, 60)
	viable := viability(g)
	hints := PrologueHintsRange(g, viable, 0, g.Len(), nil)
	if len(hints) == 0 {
		t.Fatal("no prologue hints in frame-pointer profile")
	}
	wrong := 0
	for _, h := range hints {
		if !b.Truth.InstStart[h.Off] {
			wrong++
		}
	}
	if frac := float64(wrong) / float64(len(hints)); frac > 0.10 {
		t.Errorf("prologue hint error rate %.3f (%d/%d)", frac, wrong, len(hints))
	}
}

func TestBehaviorPenalty(t *testing.T) {
	// Clean chain: push rbp; mov rbp,rsp; ret.
	clean := superset.Build([]byte{0x55, 0x48, 0x89, 0xe5, 0xc3}, 0)
	// Dirty chain: in al,dx; out dx,al; cli; ret. (hlt would end the
	// chain immediately — FlowHalt has no fallthrough.)
	dirty := superset.Build([]byte{0xec, 0xee, 0xfa, 0xc3}, 0)
	pc := BehaviorPenalty(clean, 0, 8)
	pd := BehaviorPenalty(dirty, 0, 8)
	if pc != 0 {
		t.Errorf("clean chain penalty = %v", pc)
	}
	if pd < 6 {
		t.Errorf("dirty chain penalty = %v, want >= 6", pd)
	}
	// Stack indiscipline: a run of pops.
	pops := superset.Build([]byte{0x58, 0x59, 0x5a, 0x5b, 0x5c, 0x5d, 0x5e, 0x5f,
		0x58, 0x59, 0x5a, 0xc3}, 0)
	if p := BehaviorPenalty(pops, 0, 12); p == 0 {
		t.Error("pop flood not penalised")
	}
}

func TestSortHints(t *testing.T) {
	hs := []Hint{
		{Kind: HintCode, Off: 5, Prio: PrioStat, Score: 1},
		{Kind: HintData, Off: 3, Prio: PrioProof, Score: 2},
		{Kind: HintCode, Off: 1, Prio: PrioProof, Score: 9},
		{Kind: HintCode, Off: 2, Prio: PrioStat, Score: 7},
	}
	SortHints(hs)
	if hs[0].Off != 1 || hs[1].Off != 3 || hs[2].Off != 2 || hs[3].Off != 5 {
		t.Errorf("order = %+v", hs)
	}
}

func TestEntryHint(t *testing.T) {
	g := superset.Build([]byte{0x90, 0xc3}, 0x1000)
	if h := EntryHint(g, 0); len(h) != 1 || h[0].Prio != PrioProof {
		t.Errorf("EntryHint = %v", h)
	}
	if h := EntryHint(g, -1); h != nil {
		t.Errorf("EntryHint(-1) = %v", h)
	}
	if h := EntryHint(g, 99); h != nil {
		t.Errorf("EntryHint(out of range) = %v", h)
	}
}

// TestSortHintsTotalOrder: hints tying on priority, score, offset and kind
// must still sort to one canonical sequence (source, then length, break
// the tie) no matter what order the — possibly concurrent — analyses
// emitted them in. sort.Slice is unstable, so anything short of a total
// key would let the commit order drift run-to-run.
func TestSortHintsTotalOrder(t *testing.T) {
	base := []Hint{
		{Kind: HintCode, Off: 8, Prio: PrioMedium, Score: 4, Src: "prologue"},
		{Kind: HintCode, Off: 8, Prio: PrioMedium, Score: 4, Src: "calltarget"},
		{Kind: HintData, Off: 8, Prio: PrioMedium, Score: 4, Len: 8, Src: "fill"},
		{Kind: HintData, Off: 8, Prio: PrioMedium, Score: 4, Len: 16, Src: "fill"},
		{Kind: HintData, Off: 8, Prio: PrioMedium, Score: 4, Len: 8, Src: "string"},
		{Kind: HintCode, Off: 9, Prio: PrioMedium, Score: 4, Src: "prologue"},
	}
	var want []Hint
	want = append(want, base...)
	SortHints(want)

	// Every rotation of the input must sort to the same sequence.
	for shift := 0; shift < len(base); shift++ {
		got := make([]Hint, 0, len(base))
		got = append(got, base[shift:]...)
		got = append(got, base[:shift]...)
		SortHints(got)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("shift %d: hint %d = %+v, want %+v", shift, i, got[i], want[i])
			}
		}
	}

	// The canonical order itself: code before data at one offset, sources
	// alphabetical, shorter data regions first.
	wantSrcs := []string{"calltarget", "prologue", "fill", "fill", "string", "prologue"}
	for i, s := range wantSrcs {
		if want[i].Src != s {
			t.Fatalf("canonical order = %+v, want srcs %v", want, wantSrcs)
		}
	}
	if want[2].Len != 8 || want[3].Len != 16 {
		t.Errorf("len tie-break: %+v", want[2:4])
	}
}
