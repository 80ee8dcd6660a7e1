package main

import (
	"bytes"
	"debug/dwarf"
	"debug/elf"
	"fmt"
	"io"
	"sort"

	"probedis/internal/synth"
	"probedis/internal/x86"
)

// ELF/DWARF truth extraction. The symbol table provides function bounds
// (STT_FUNC value+size); each function body is decoded linearly into
// instruction starts — inside a function with no embedded data, linear
// decode from the entry is exact. The DWARF line table then
// cross-validates the result: every line-table address must land on a
// decoded instruction start, so a function that *does* contain embedded
// data (which would silently desynchronise the linear decode) is
// rejected instead of producing wrong truth. Bytes outside every
// function are alignment fill: decoded as code when they form valid
// instructions (NOP fill), padding otherwise.
//
// Both tables are compiler metadata, which the pipeline itself never
// reads — truth extraction is evaluation-only (see DESIGN.md).

// truthFromELF extracts truth for the .text section of an unstripped
// ELF image.
func truthFromELF(r io.ReaderAt) (*synth.Truth, uint64, error) {
	f, err := elf.NewFile(r)
	if err != nil {
		return nil, 0, fmt.Errorf("elf: %w", err)
	}
	text := f.Section(".text")
	if text == nil {
		return nil, 0, fmt.Errorf("elf: no .text section")
	}
	code, err := text.Data()
	if err != nil {
		return nil, 0, fmt.Errorf("elf: .text: %w", err)
	}
	n := len(code)
	t := &synth.Truth{
		Classes:   make([]synth.ByteClass, n),
		InstStart: make([]bool, n),
	}

	syms, err := f.Symbols()
	if err != nil {
		return nil, 0, fmt.Errorf("elf: symbol table: %w (truth extraction needs an unstripped binary)", err)
	}
	type fn struct{ off, end int }
	var funcs []fn
	for _, s := range syms {
		if elf.ST_TYPE(s.Info) != elf.STT_FUNC || s.Size == 0 {
			continue
		}
		off := int(s.Value - text.Addr)
		end := off + int(s.Size)
		if s.Value < text.Addr || end > n {
			continue // function in another section
		}
		funcs = append(funcs, fn{off, end})
	}
	if len(funcs) == 0 {
		return nil, 0, fmt.Errorf("elf: no sized STT_FUNC symbols in .text")
	}
	sort.Slice(funcs, func(i, j int) bool { return funcs[i].off < funcs[j].off })

	covered := make([]bool, n)
	for _, fun := range funcs {
		t.FuncStarts = append(t.FuncStarts, fun.off)
		starts, ok := decodeRange(code[fun.off:fun.end], text.Addr+uint64(fun.off))
		if !ok {
			return nil, 0, fmt.Errorf("elf: function at %#x does not decode linearly: embedded data or unsupported instructions (use -listing truth for this binary)",
				text.Addr+uint64(fun.off))
		}
		for i := fun.off; i < fun.end; i++ {
			covered[i] = true
		}
		for _, s := range starts {
			t.InstStart[fun.off+s] = true
		}
	}
	// Deduplicate aliased function symbols.
	t.FuncStarts = dedupSorted(t.FuncStarts)

	// Inter-function gaps: NOP fill is code, anything else padding.
	for i := 0; i < n; {
		if covered[i] {
			i++
			continue
		}
		j := i
		for j < n && !covered[j] {
			j++
		}
		if starts, ok := decodeRange(code[i:j], text.Addr+uint64(i)); ok && isNopFill(code[i:j]) {
			for _, s := range starts {
				t.InstStart[i+s] = true
			}
		} else {
			for k := i; k < j; k++ {
				t.Classes[k] = synth.ClassPadding
			}
		}
		i = j
	}

	if err := validateLineTable(f, t, text.Addr, code); err != nil {
		return nil, 0, err
	}
	return t, text.Addr, nil
}

// isNopFill reports whether buf is entirely NOP-family encodings (0x90,
// 0x66... prefixes of it, or the 0F 1F long-NOP forms).
func isNopFill(buf []byte) bool {
	for o := 0; o < len(buf); {
		inst, err := x86.Decode(buf[o:], 0)
		if err != nil {
			return false
		}
		b := buf[o:]
		for len(b) > 0 && b[0] == 0x66 {
			b = b[1:]
		}
		if len(b) == 0 || (b[0] != 0x90 && !bytes.HasPrefix(b, []byte{0x0f, 0x1f})) {
			return false
		}
		o += inst.Len
	}
	return len(buf) > 0
}

// validateLineTable checks every DWARF line-table address against the
// extracted instruction starts (see lineEntryOnBoundary). A binary
// without DWARF passes vacuously (symbol sizes alone already bound the
// linear decode).
func validateLineTable(f *elf.File, t *synth.Truth, base uint64, code []byte) error {
	d, err := f.DWARF()
	if err != nil {
		return nil // no debug info; symtab-only extraction
	}
	rd := d.Reader()
	for {
		ent, err := rd.Next()
		if err != nil || ent == nil {
			return nil
		}
		if ent.Tag != dwarf.TagCompileUnit {
			continue
		}
		lr, err := d.LineReader(ent)
		if err != nil || lr == nil {
			continue
		}
		var le dwarf.LineEntry
		for {
			if err := lr.Next(&le); err != nil {
				break
			}
			if le.EndSequence {
				continue
			}
			off := int(le.Address - base)
			if off < 0 || off >= len(code) {
				continue // line entry for another section
			}
			if !lineEntryOnBoundary(code, t.InstStart, off) {
				return fmt.Errorf("elf: DWARF line entry at %#x is not a decoded instruction start: linear decode desynchronised",
					le.Address)
			}
		}
	}
}

// legacyPrefix marks the x86 legacy prefix bytes: lock, repne/rep, the
// segment overrides and the operand/address-size overrides.
var legacyPrefix = [256]bool{
	0xf0: true, 0xf2: true, 0xf3: true,
	0x2e: true, 0x36: true, 0x3e: true, 0x26: true, 0x64: true, 0x65: true,
	0x66: true, 0x67: true,
}

// lineEntryOnBoundary reports whether a line-table entry at off agrees
// with the decoded instruction starts: off is an instruction start, or
// every byte between the start of the instruction enclosing off and off
// itself is a legacy prefix. Go's line table places entries after a lock
// prefix (a statement boundary at the cmpxchg of "lock cmpxchg"), which
// does not desynchronise anything; an entry inside an opcode, ModRM,
// displacement or immediate does.
func lineEntryOnBoundary(code []byte, instStart []bool, off int) bool {
	if instStart[off] {
		return true
	}
	// An instruction is at most 15 bytes, so its start lies within 14
	// bytes before any byte it covers.
	for s := off - 1; s >= 0 && off-s < 15; s-- {
		if !legacyPrefix[code[s]] {
			return false
		}
		if instStart[s] {
			return true
		}
	}
	return false
}

func dedupSorted(a []int) []int {
	out := a[:0]
	for i, v := range a {
		if i == 0 || v != a[i-1] {
			out = append(out, v)
		}
	}
	return out
}
