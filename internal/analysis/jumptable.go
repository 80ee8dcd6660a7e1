package analysis

import (
	"encoding/binary"

	"probedis/internal/superset"
	"probedis/internal/x86"
)

// JumpTable is a discovered jump table: a proven-data region plus the
// proven-code targets its entries dispatch to.
type JumpTable struct {
	Site    int // offset of the dispatching instruction sequence
	Table   int // offset of the first entry
	EntrySz int // 4 (PIC offsets) or 8 (absolute pointers)
	Entries int
	Targets []int // distinct, in-section target offsets
}

// maxTableEntries bounds table scanning.
const maxTableEntries = 1024

// FindJumpTablesRange recognises the three switch-dispatch idioms
// compilers emit and validates their tables entry-by-entry against
// viability:
//
//  1. jmp [table + idx*8]            (absolute table, non-PIC)
//  2. lea r,[rip+table]; mov r2,[r+idx*8]; jmp r2          (absolute)
//  3. lea r,[rip+table]; movsxd r2,[r+idx*4]; add r2,r; jmp r2 (PIC)
//
// A validated table proves its bytes are data and its targets are code.
// Only dispatch sites anchored in [from, to) are considered, and tables
// are appended to dst. Only the anchor is bounded: the dispatch chain,
// the bounds-check lookback and the table scan all read the graph
// globally, so a table whose parts straddle a shard seam is recovered
// identically by whichever shard owns its anchor — concatenating shard
// outputs in shard order reproduces the whole-section scan verbatim.
func FindJumpTablesRange(g *superset.Graph, viable []bool, from, to int, dst []JumpTable) []JumpTable {
	out := dst
	for off := from; off < to; off++ {
		e := g.At(off)
		if !viable[off] || !e.Valid() {
			continue
		}

		// Idiom 1: indirect jmp with scaled-index, no base, abs32 disp.
		// The packed record narrows candidates to memory-indirect jumps;
		// the operand shape needs the materialized instruction.
		if e.Flow == x86.FlowIndirectJump && e.HasMem() {
			inst := g.InstAt(off)
			if inst.Mem.Index != x86.RegNone && inst.Mem.Scale == 8 &&
				inst.Mem.Base == x86.RegNone {
				if tbl := g.OffsetOf(uint64(inst.Mem.Disp)); tbl >= 0 {
					if jt, ok := scanAbsTable(g, viable, off, tbl); ok {
						out = append(out, jt)
					}
				}
				continue
			}
		}

		// Idioms 2 and 3 start from a RIP-relative lea.
		if e.Op != x86.LEA || !e.HasMem() || !e.MemBaseRIP() {
			continue
		}
		addr, ok := g.MemAddrAt(off)
		if !ok {
			continue
		}
		tbl := g.OffsetOf(addr)
		if tbl < 0 {
			continue
		}
		lea := g.InstAt(off)
		base := lea.Writes // the register holding the table address
		if jt, ok := matchLeaDispatch(g, viable, off, tbl, base); ok {
			out = append(out, jt)
		}
	}
	return out
}

// matchLeaDispatch walks the chain after a lea to find the scaled load and
// the indirect jump through the loaded register.
func matchLeaDispatch(g *superset.Graph, viable []bool, leaOff, tbl int, baseReg uint32) (JumpTable, bool) {
	off := leaOff + int(g.At(leaOff).Len)
	var loadedReg uint32
	entrySz := 0
	for step := 0; step < 8 && off < g.Len() && g.Valid(off); step++ {
		// At most 8 steps per lea candidate: materializing each is cheap.
		inst := g.InstAt(off)
		switch {
		case entrySz == 0 && inst.HasMem && inst.Mem.Base != x86.RegNone &&
			inst.Mem.Base.Bit()&baseReg != 0 && inst.Mem.Index != x86.RegNone:
			switch {
			case inst.Op == x86.MOV && inst.Mem.Scale == 8:
				entrySz = 8
				loadedReg = inst.Writes
			case inst.Op == x86.MOVSXD && inst.Mem.Scale == 4:
				entrySz = 4
				loadedReg = inst.Writes
			}
		case entrySz == 4 && inst.Op == x86.ADD &&
			inst.Writes&loadedReg != 0 && inst.Reads&baseReg != 0:
			// add target, base: keep tracking the same register.
		case entrySz != 0 && inst.Flow == x86.FlowIndirectJump && !inst.HasMem &&
			inst.Reads&loadedReg != 0:
			if entrySz == 8 {
				return scanAbsTable(g, viable, leaOff, tbl)
			}
			return scanOffsetTable(g, viable, leaOff, tbl)
		}
		if !inst.Flow.HasFallthrough() {
			break
		}
		off += inst.Len
	}
	return JumpTable{}, false
}

// boundFrom looks for the bounds check guarding a dispatch at site: a
// `cmp reg, imm` shortly before it whose fallthrough chain reaches site.
// Returns the entry count (imm+1), or maxTableEntries when not found.
func boundFrom(g *superset.Graph, site int) int {
	lo := site - 24
	if lo < 0 {
		lo = 0
	}
	for o := lo; o < site; o++ {
		e := g.At(o)
		if !e.Valid() || e.Op != x86.CMP || !e.HasImm() {
			continue
		}
		inst := g.InstAt(o) // immediate value lives only on the full decode
		if inst.Imm < 0 || inst.Imm >= maxTableEntries {
			continue
		}
		// Does the chain from o reach site?
		p := o
		for step := 0; step < 6 && p < site; step++ {
			if !g.Valid(p) || !g.At(p).Flow.HasFallthrough() {
				p = -1
				break
			}
			p += int(g.At(p).Len)
		}
		if p == site {
			return int(inst.Imm) + 1
		}
	}
	return maxTableEntries
}

// scanAbsTable validates 8-byte absolute entries at tbl.
func scanAbsTable(g *superset.Graph, viable []bool, site, tbl int) (JumpTable, bool) {
	jt := JumpTable{Site: site, Table: tbl, EntrySz: 8}
	bound := boundFrom(g, site)
	seen := map[int]bool{}
	for i := tbl; i+8 <= g.Len() && jt.Entries < bound; i += 8 {
		v := binary.LittleEndian.Uint64(g.Code[i:])
		t := g.OffsetOf(v)
		if t < 0 || !viable[t] {
			break
		}
		jt.Entries++
		if !seen[t] {
			seen[t] = true
			jt.Targets = append(jt.Targets, t)
		}
	}
	return jt, jt.Entries >= 2
}

// scanOffsetTable validates 4-byte PIC offsets relative to tbl.
func scanOffsetTable(g *superset.Graph, viable []bool, site, tbl int) (JumpTable, bool) {
	jt := JumpTable{Site: site, Table: tbl, EntrySz: 4}
	bound := boundFrom(g, site)
	seen := map[int]bool{}
	for i := tbl; i+4 <= g.Len() && jt.Entries < bound; i += 4 {
		v := int64(int32(binary.LittleEndian.Uint32(g.Code[i:])))
		t := int64(tbl) + v
		if v == 0 || t < 0 || t >= int64(g.Len()) || !viable[t] {
			break
		}
		jt.Entries++
		if !seen[int(t)] {
			seen[int(t)] = true
			jt.Targets = append(jt.Targets, int(t))
		}
	}
	return jt, jt.Entries >= 2
}

// JumpTableHints converts discovered tables into proof-priority hints.
func JumpTableHints(tables []JumpTable) []Hint {
	var hs []Hint
	for _, jt := range tables {
		hs = append(hs, Hint{
			Kind: HintData, Off: jt.Table, Len: jt.Entries * jt.EntrySz,
			Prio: PrioProof, Score: float64(jt.Entries), Src: "jumptable",
		})
		hs = append(hs, Hint{
			Kind: HintCode, Off: jt.Site,
			Prio: PrioProof, Score: float64(jt.Entries), Src: "jumptable-site",
		})
		for _, t := range jt.Targets {
			hs = append(hs, Hint{
				Kind: HintCode, Off: t,
				Prio: PrioProof, Score: float64(jt.Entries), Src: "jumptable-target",
			})
		}
	}
	return hs
}
