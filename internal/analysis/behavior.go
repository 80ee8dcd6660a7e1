package analysis

import (
	"probedis/internal/superset"
	"probedis/internal/x86"
)

// BehaviorPenalty scores how implausible the decode chain starting at off
// is as real code, using behavioural properties the paper exploits:
//
//   - rare/privileged opcodes (in/out, hlt, far control transfers, BCD...)
//     essentially never occur in application code;
//   - the stack pointer must stay disciplined: a window whose cumulative
//     RSP delta goes far positive (popping a stack it never pushed) or
//     implausibly negative is data decoding as code;
//   - segment-prefixed and LOCK-prefixed nonsense forms.
//
// Returns a non-negative penalty (0 = clean chain).
func BehaviorPenalty(g *superset.Graph, off, window int) float64 {
	var penalty float64
	var stack int64
	for n := 0; n < window && off < g.Len() && g.Valid(off); n++ {
		e := g.At(off)
		if e.Rare() {
			penalty += 3
		}
		if e.SegPrefix() {
			penalty += 1.5 // segment overrides are rare in 64-bit code
		}
		stack += int64(e.StackDelta)
		if e.Op == x86.LEAVE || e.Op == x86.ENTER {
			stack = 0 // frame reset; delta no longer tracked
		}
		switch {
		case stack > 64:
			penalty += 2 // popped far more than pushed in one window
		case stack < -65536:
			penalty += 2 // absurd frame allocation
		}
		if !e.Flow.HasFallthrough() {
			break
		}
		off += int(e.Len)
	}
	return penalty
}

// StatHintsRange produces the statistical classification hints for the
// offsets [from, to): for each viable offset, the model's normalized
// log-odds (adjusted by the behavioural penalty) yields a code hint when
// it clears threshold. scores is window-relative — scores[i] holds the
// Model.ScoreWindowInto value of offset from+i and must cover to-from
// entries — so a caller can score just the windows it needs (the tiered
// pipeline's contested windows) or pass the slice [from:to] of a
// section-length buffer. The behaviour penalty's chain walk reads the
// whole graph, so hints do not depend on how the section is windowed;
// the pipeline appends each window's hints to dst. from/to are clamped to
// the section.
//
// threshold shifts the decision boundary: scores above it become code
// hints (0 is the calibrated default; the F4 experiment sweeps it).
func StatHintsRange(g *superset.Graph, viable []bool, scores []float64, penaltyWeight, threshold float64, from, to int, dst []Hint) []Hint {
	base := from
	if from < 0 {
		from = 0
	}
	if to > g.Len() {
		to = g.Len()
	}
	hs := dst
	for off := from; off < to; off++ {
		if !g.Valid(off) {
			continue
		}
		s := scores[off-base]
		if s <= -1e8 {
			continue
		}
		// The penalty is non-negative, so when the raw score is already at
		// or below the threshold (or the offset is not viable) no hint can
		// result — skip the 8-step chain walk entirely. Only valid when the
		// weight cannot flip the penalty's sign.
		if penaltyWeight >= 0 && (s-threshold <= 0 || !viable[off]) {
			continue
		}
		s -= penaltyWeight * BehaviorPenalty(g, off, 8)
		s -= threshold
		if s > 0 && viable[off] {
			hs = append(hs, Hint{Kind: HintCode, Off: off, Prio: PrioStat,
				Score: s, Src: "stat"})
		}
		// Negative-scoring offsets emit no hint: they are usually the
		// *middles* of real instructions (padding NOPs, dead blocks), and
		// a per-offset data claim would poison the true starts. Bytes no
		// code chain claims default to data in the corrector's gap fill,
		// which is driven by these same scores.
	}
	return hs
}
