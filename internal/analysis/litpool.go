package analysis

import (
	"probedis/internal/superset"
	"probedis/internal/x86"
)

// isFPLoadOp reports whether op loads floating-point/vector data from
// memory — the instruction class that references literal pools.
func isFPLoadOp(op x86.Op) bool {
	switch op {
	case x86.MOVUPS, x86.MOVAPS, x86.MOVLPS, x86.MOVHPS, x86.MOVD, x86.MOVQ,
		x86.MOVDQ, x86.SSEAR, x86.CVT, x86.COMIS, x86.X87, x86.PARITH,
		x86.PCMP, x86.PACK:
		return true
	}
	return false
}

// looksLikeDouble reports whether the 8 bytes at b[0:8] plausibly encode a
// float64 literal: a biased exponent in the range covering magnitudes
// ~1e-75..1e+76 (where virtually all program constants live), or zero.
func looksLikeDouble(b []byte) bool {
	exp := (uint16(b[7]&0x7f)<<4 | uint16(b[6])>>4)
	if exp == 0 {
		// Accept only true zero/denormal-zero patterns.
		for _, x := range b[:7] {
			if x != 0 {
				return false
			}
		}
		return true
	}
	return exp >= 0x300 && exp <= 0x4ff
}

// FloatRunHints flags unreferenced constant pools: 8-aligned runs of two
// or more plausible float64 literals.
//
// Experimental — NOT part of the default pipeline: the plausible-exponent
// byte range overlaps common code bytes (REX prefixes 0x40-0x4f land
// exactly in the double-exponent band), so on code-dense sections this
// detector misclassifies real instructions far more often than it
// recovers unreferenced pools. It is retained for the ablation discussion
// and enabled via core.WithFloatRuns.
func FloatRunHints(g *superset.Graph) []Hint {
	var hs []Hint
	n := g.Len()
	for off := 0; off+16 <= n; off += 8 {
		if !looksLikeDouble(g.Code[off:]) {
			continue
		}
		end := off + 8
		for end+8 <= n && looksLikeDouble(g.Code[end:]) {
			end += 8
		}
		if end-off >= 16 {
			from := off
			for pad := 0; pad < 7 && from > 0 && g.Code[from-1] == 0; pad++ {
				from--
			}
			hs = append(hs, Hint{Kind: HintData, Off: from, Len: end - from,
				Prio: PrioMedium, Score: float64(end-off) / 8, Src: "floatrun"})
		}
		off = end - 8 // loop's += 8 moves past the run
	}
	return hs
}

// LiteralPoolHintsRange proves embedded floating-point constant pools: a
// RIP-relative memory operand on an SSE/x87 instruction, or a RIP-relative
// lea whose register is then dereferenced by an SSE/x87 load, pins the
// referenced bytes as data. Only referencing instructions anchored in
// [from, to) are considered, and hints are appended to dst. The pool
// extension and the lea-deref chain read the section globally, so a pool
// sitting across a shard seam is proven identically by the shard owning
// its referencing load; shard outputs concatenated in shard order equal
// the whole-section scan's sequence.
func LiteralPoolHintsRange(g *superset.Graph, viable []bool, from, to int, dst []Hint) []Hint {
	hs := dst
	add := func(off, n int) {
		if off < 0 || off >= g.Len() {
			return
		}
		// Constant pools hold several literals but code references only
		// some of them: extend the proven region across adjacent 8-byte
		// words that look like floating-point constants, and backwards
		// across the short zero run that aligns the pool.
		for off+n+8 <= g.Len() && looksLikeDouble(g.Code[off+n:]) {
			n += 8
		}
		for pad := 0; pad < 7 && off > 0 && g.Code[off-1] == 0; pad++ {
			off--
			n++
		}
		if off+n > g.Len() {
			n = g.Len() - off
		}
		hs = append(hs, Hint{Kind: HintData, Off: off, Len: n,
			Prio: PrioStrong, Score: float64(n), Src: "litpool"})
	}
	for off := from; off < to; off++ {
		e := g.At(off)
		if !viable[off] || !e.Valid() {
			continue
		}

		// Direct rip-relative FP load: movsd xmm, [rip+disp].
		if isFPLoadOp(e.Op) && e.HasMem() && e.MemBaseRIP() {
			if addr, ok := g.MemAddrAt(off); ok {
				add(g.OffsetOf(addr), 8)
			}
			continue
		}

		// lea r, [rip+pool]; ... fpload [r] within a short chain.
		if e.Op != x86.LEA || !e.HasMem() || !e.MemBaseRIP() {
			continue
		}
		addr, ok := g.MemAddrAt(off)
		if !ok {
			continue
		}
		poolOff := g.OffsetOf(addr)
		if poolOff < 0 {
			continue
		}
		lea := g.InstAt(off)
		baseReg := lea.Writes
		p := off + int(e.Len)
		for step := 0; step < 6 && p < g.Len() && g.Valid(p); step++ {
			// Short chain (≤6 steps) only behind a rip-relative lea:
			// materializing each step stays off the hot path.
			ni := g.InstAt(p)
			if ni.HasMem && ni.Mem.Base != x86.RegNone &&
				ni.Mem.Base.Bit()&baseReg != 0 && ni.Mem.Index == x86.RegNone &&
				isFPLoadOp(ni.Op) {
				add(poolOff+int(ni.Mem.Disp), 8)
				break
			}
			if ni.Writes&baseReg != 0 || !ni.Flow.HasFallthrough() {
				break
			}
			p += ni.Len
		}
	}
	return hs
}
