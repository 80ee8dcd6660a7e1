package analysis

import (
	"math"
	"sync/atomic"

	"probedis/internal/stats"
	"probedis/internal/superset"
	"probedis/internal/x86"
)

// EntryHint anchors the program entry point as proven code.
func EntryHint(g *superset.Graph, entry int) []Hint {
	if entry < 0 || entry >= g.Len() || !g.Valid(entry) {
		return nil
	}
	return []Hint{{Kind: HintCode, Off: entry, Prio: PrioProof, Score: math.Inf(1), Src: "entry"}}
}

// CallTargetCountsRange adds, into callers (a dense per-section slice
// of length g.Len()), the caller counts contributed by the viable direct-
// call sites in [from, to). Offsets called from two or more places are
// near-certain function entries (behavioural property: data bytes rarely
// conspire to form multiple consistent calls to one target); single-
// caller targets are medium evidence. Targets may lie anywhere in the
// section — the caller-count property is global, so two callers in
// different shards still prove one entry — and shards count into the
// same slice concurrently: the increments are atomic, and call sites are
// sparse, so the atomics stay off the scan's hot path.
func CallTargetCountsRange(g *superset.Graph, viable []bool, from, to int, callers []int32) {
	for off := from; off < to; off++ {
		if !viable[off] || g.At(off).Flow != x86.FlowCall {
			continue
		}
		if t := g.TargetOff(off); t >= 0 && viable[t] {
			atomic.AddInt32(&callers[t], 1)
		}
	}
}

// CallTargetHintsOf emits one call-target hint per counted target, in
// ascending offset order (the dense slice makes the order deterministic
// where map iteration would shuffle it), with priority from the
// section-wide caller total.
func CallTargetHintsOf(callers []int32) []Hint {
	var hs []Hint
	for t, n := range callers {
		if n == 0 {
			continue
		}
		prio := PrioMedium
		if n >= 2 {
			prio = PrioStrong
		}
		hs = append(hs, Hint{
			Kind: HintCode, Off: t, Prio: prio,
			Score: float64(n), Src: "calltarget",
		})
	}
	return hs
}

// ProloguePatterns are byte sequences that begin typical function
// prologues. Matches are only taken at plausibly function-aligned spots.
var prologuePatterns = [][]byte{
	{0xf3, 0x0f, 0x1e, 0xfa}, // endbr64
	{0x55, 0x48, 0x89, 0xe5}, // push rbp; mov rbp, rsp
	{0x55, 0x48, 0x83, 0xec}, // push rbp; sub rsp, imm8
	{0x41, 0x54, 0x55},       // push r12; push rbp
	{0x48, 0x83, 0xec},       // sub rsp, imm8
	{0x48, 0x81, 0xec},       // sub rsp, imm32
	{0x53, 0x48, 0x83, 0xec}, // push rbx; sub rsp
	{0x41, 0x57, 0x41, 0x56}, // push r15; push r14
}

// PrologueHintsRange matches prologue byte patterns at viable offsets in
// [from, to) that follow a padding byte, a return/jump boundary, or
// 16-byte alignment, appending to dst. The pattern bytes and the one-byte
// lookback read the section globally, so a shard sees exactly what the
// full scan sees at every offset it owns; concatenating the shards'
// output in shard order reproduces the full scan's sequence verbatim.
func PrologueHintsRange(g *superset.Graph, viable []bool, from, to int, dst []Hint) []Hint {
	hs := dst
	code := g.Code
	for off := from; off < to; off++ {
		if !viable[off] || !prologueFirstByte[code[off]] {
			continue
		}
		matched := false
		for _, p := range prologuePatterns {
			if off+len(p) <= len(code) && bytesEq(code[off:off+len(p)], p) {
				matched = true
				break
			}
		}
		if !matched {
			continue
		}
		// Positional plausibility.
		plausible := off == 0 || off%16 == 0
		if !plausible {
			switch code[off-1] {
			case 0xc3, 0xcc, 0x00, 0x90:
				plausible = true
			}
		}
		if !plausible {
			continue
		}
		hs = append(hs, Hint{
			Kind: HintCode, Off: off, Prio: PrioMedium, Score: 4, Src: "prologue",
		})
	}
	return hs
}

// prologueFirstByte marks bytes that begin some prologue pattern, so the
// scan rejects most offsets with a single table load instead of running
// the pattern loop.
var prologueFirstByte = func() (t [256]bool) {
	for _, p := range prologuePatterns {
		t[p[0]] = true
	}
	return
}()

func bytesEq(a, b []byte) bool {
	for i := range b {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// DataPatternHints turns the raw statistical data detectors into hints.
func DataPatternHints(g *superset.Graph) []Hint {
	var hs []Hint
	for _, r := range stats.FillRuns(g.Code, 8) {
		hs = append(hs, Hint{Kind: HintData, Off: r.From, Len: r.Len(),
			Prio: PrioStrong, Score: float64(r.Len()), Src: "fill"})
	}
	for _, r := range stats.PrintableRuns(g.Code, 6) {
		hs = append(hs, Hint{Kind: HintData, Off: r.From, Len: r.Len(),
			Prio: PrioMedium, Score: float64(r.Len()), Src: "string"})
	}
	for _, r := range stats.PointerArrays(g.Code, g.Base, 3) {
		hs = append(hs, Hint{Kind: HintData, Off: r.From, Len: r.Len(),
			Prio: PrioMedium, Score: float64(r.Len()) / 8, Src: "ptrarray"})
	}
	for _, r := range stats.OffsetTables(g.Code, 4) {
		hs = append(hs, Hint{Kind: HintData, Off: r.From, Len: r.Len(),
			Prio: PrioWeak, Score: float64(r.Len()) / 4, Src: "offtable"})
	}
	return hs
}
