package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"probedis/internal/synth"
)

const realDir = "../../testdata/real"

func tg(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestListingMatchesCommittedTruth: extraction from the committed
// listing reproduces the committed truth file byte for byte — the
// committed corpus is exactly what truthgen says it is.
func TestListingMatchesCommittedTruth(t *testing.T) {
	code, stdout, stderr := tg(t,
		"-listing", filepath.Join(realDir, "strtab.lst"),
		"-base", "4198400", // 0x401000
		"-check", filepath.Join(realDir, "strtab.elf"),
		"-mode", "strict")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	want, err := os.ReadFile(filepath.Join(realDir, "strtab.truth"))
	if err != nil {
		t.Fatal(err)
	}
	if stdout != string(want) {
		t.Errorf("extracted truth differs from committed strtab.truth:\n%s", stdout)
	}
}

// TestELFMatchesCommittedTruth: DWARF/symtab extraction reproduces the
// committed C-fixture truth.
func TestELFMatchesCommittedTruth(t *testing.T) {
	code, stdout, stderr := tg(t,
		"-elf", filepath.Join(realDir, "cfun.dbg"), "-mode", "strict")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	want, err := os.ReadFile(filepath.Join(realDir, "cfun.truth"))
	if err != nil {
		t.Fatal(err)
	}
	if stdout != string(want) {
		t.Errorf("extracted truth differs from committed cfun.truth:\n%s", stdout)
	}
}

// TestListingTruthContent spot-checks the extracted classes: the
// fixture's jump table, strings and constant pool must all be present,
// and the truth must parse back through the shared reader.
func TestListingTruthContent(t *testing.T) {
	_, stdout, _ := tg(t, "-listing", filepath.Join(realDir, "strtab.lst"))
	tr, base, err := synth.ReadTruth(strings.NewReader(stdout))
	if err != nil {
		t.Fatal(err)
	}
	if base != 0x401000 {
		t.Errorf("base %#x, want 0x401000", base)
	}
	counts := tr.Counts()
	if counts[synth.ClassJumpTable] != 32 {
		t.Errorf("jump table bytes = %d, want 32 (4 x .quad)", counts[synth.ClassJumpTable])
	}
	if counts[synth.ClassConst] != 16 {
		t.Errorf("const bytes = %d, want 16 (2 x .double)", counts[synth.ClassConst])
	}
	if counts[synth.ClassString] == 0 || counts[synth.ClassPadding] == 0 {
		t.Errorf("missing string (%d) or padding (%d) bytes",
			counts[synth.ClassString], counts[synth.ClassPadding])
	}
	if len(tr.FuncStarts) != 4 {
		t.Errorf("func starts = %d, want 4 (_start, dispatch, checksum, tailfn)", len(tr.FuncStarts))
	}
}

// TestCheckRejectsWrongBinary: checking truth against the wrong
// executable fails instead of writing bad truth.
func TestCheckRejectsWrongBinary(t *testing.T) {
	code, _, stderr := tg(t,
		"-listing", filepath.Join(realDir, "strtab.lst"),
		"-check", filepath.Join(realDir, "cfun.elf"))
	if code == 0 {
		t.Fatalf("wrong -check binary accepted: %s", stderr)
	}
}

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{},
		{"-listing", "a.lst", "-elf", "b.elf"},
		{"-listing", "a.lst", "-mode", "wat"},
		{"-listing", "a.lst", "extra-arg"},
	}
	for _, args := range cases {
		if code, _, _ := tg(t, args...); code != 2 {
			t.Errorf("args %v: exit %d, want 2", args, code)
		}
	}
	if code, _, _ := tg(t, "-listing", "no-such-file.lst"); code != 1 {
		t.Error("missing listing file: want exit 1")
	}
	if code, _, _ := tg(t, "-elf", "no-such-file"); code != 1 {
		t.Error("missing ELF file: want exit 1")
	}
}

// TestRejectsMalformedListing: byte-emitting directives without a truth
// class must fail loudly rather than default to a guess.
func TestRejectsMalformedListing(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "bad.lst")
	// .uleb128 emits bytes but has no class mapping.
	lst := "   1              \t\t.text\n" +
		"   2 0000 90       \t\tnop\n" +
		"   3 0001 8001     \t\t.uleb128 128\n"
	if err := os.WriteFile(p, []byte(lst), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, stderr := tg(t, "-listing", p); code != 1 || !strings.Contains(stderr, "uleb128") {
		t.Errorf("unclassifiable directive: exit %d, stderr %q", code, stderr)
	}
	// An empty listing has no .text statements.
	empty := filepath.Join(dir, "empty.lst")
	os.WriteFile(empty, []byte("GAS LISTING\n"), 0o644)
	if code, _, _ := tg(t, "-listing", empty); code != 1 {
		t.Error("empty listing accepted")
	}
}

// TestStrippedELFRejected: ELF mode needs the symbol table.
func TestStrippedELFRejected(t *testing.T) {
	if code, _, stderr := tg(t, "-elf", filepath.Join(realDir, "cfun.elf")); code != 1 {
		t.Errorf("stripped ELF accepted: exit %d, %s", code, stderr)
	}
}

// TestLineEntryOnBoundary: a line-table entry is accepted at an
// instruction start or right after legacy prefixes of the enclosing
// instruction (Go puts entries after a lock prefix), and rejected
// anywhere inside the opcode, ModRM or immediate bytes.
func TestLineEntryOnBoundary(t *testing.T) {
	for _, tc := range []struct {
		name   string
		code   []byte
		starts []int
		ok     []int
		bad    []int
	}{
		// lock cmpxchg [rdi], ecx; ret
		{"lock-cmpxchg", []byte{0xf0, 0x0f, 0xb1, 0x0f, 0xc3}, []int{0, 4}, []int{0, 1, 4}, []int{2, 3}},
		// mov eax, 1
		{"mov-imm32", []byte{0xb8, 0x01, 0x00, 0x00, 0x00}, []int{0}, []int{0}, []int{1, 2, 3, 4}},
		// nopw cs:[rax+rax*1+0]: three prefixes before 0F 1F
		{"prefixed-nop", []byte{0x66, 0x66, 0x2e, 0x0f, 0x1f, 0x84, 0x00, 0x00, 0x00, 0x00, 0x00}, []int{0},
			[]int{1, 2, 3}, []int{4, 5, 6, 10}},
		// popcnt rax, rax: a REX byte is not a legacy prefix
		{"rex-after-rep", []byte{0xf3, 0x48, 0x0f, 0xb8, 0xc0}, []int{0}, []int{1}, []int{2, 3, 4}},
	} {
		starts := make([]bool, len(tc.code))
		for _, s := range tc.starts {
			starts[s] = true
		}
		for _, off := range tc.ok {
			if !lineEntryOnBoundary(tc.code, starts, off) {
				t.Errorf("%s: entry at +%d rejected, want accepted", tc.name, off)
			}
		}
		for _, off := range tc.bad {
			if lineEntryOnBoundary(tc.code, starts, off) {
				t.Errorf("%s: entry at +%d accepted, want rejected", tc.name, off)
			}
		}
	}
}
