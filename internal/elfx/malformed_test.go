package elfx

import (
	"bytes"
	"testing"
)

// baseImage builds a small valid image to mutate: one executable section.
func baseImage(t *testing.T) []byte {
	t.Helper()
	var b Builder
	b.Entry = 0x401000
	b.AddSection(".text", 0x401000, SHFAlloc|SHFExecinstr,
		bytes.Repeat([]byte{0x90}, 32))
	img, err := b.Write()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// put64 writes a little-endian uint64 into a copy of img at off.
func put64(img []byte, off int, v uint64) []byte {
	out := append([]byte(nil), img...)
	le.PutUint64(out[off:], v)
	return out
}

func put16(img []byte, off int, v uint16) []byte {
	out := append([]byte(nil), img...)
	le.PutUint16(out[off:], v)
	return out
}

// namedImage is one named case of the malformed-image corpus.
type namedImage struct {
	name string
	img  []byte
}

// malformedImages builds the hostile-image corpus: every case must be
// rejected by Parse.
func malformedImages(t *testing.T) []namedImage {
	t.Helper()
	img := baseImage(t)
	// ELF header field offsets.
	const (
		ehPhoff  = 32
		ehShoff  = 40
		ehPhnum  = 56
		ehShnum  = 60
		ehShstrx = 62
	)
	shoff := le.Uint64(img[ehShoff:])

	return []namedImage{
		{"empty", nil},
		{"truncated-header", img[:32]},
		{"bad-magic", append([]byte{'M', 'Z', 0, 0}, img[4:]...)},
		{"elf32", func() []byte {
			out := append([]byte(nil), img...)
			out[4] = 1 // ELFCLASS32
			return out
		}()},
		{"wrong-machine", put16(img, 18, 0x28)}, // ARM
		{"phoff-past-eof", put64(img, ehPhoff, uint64(len(img)))},
		{"phoff-overflow", put64(img, ehPhoff, ^uint64(0)-8)},
		{"segment-data-past-eof", put64(img, int(le.Uint64(img[ehPhoff:]))+32, uint64(len(img)))}, // filesz
		{"segment-off-overflow", put64(img, int(le.Uint64(img[ehPhoff:]))+8, ^uint64(0)-4)},       // p_offset
		{"shoff-past-eof", put64(img, ehShoff, uint64(len(img)))},
		{"shoff-overflow", put64(img, ehShoff, ^uint64(0)-16)},
		// Section header 1 (.text) of the valid image: sh_offset at +24,
		// sh_size at +32 within the 64-byte entry.
		{"section-offset-past-eof", put64(img, int(shoff)+shSize+24, uint64(len(img)))},
		{"section-off-overflow", put64(img, int(shoff)+shSize+24, ^uint64(0)-4)},
		{"section-size-past-eof", put64(img, int(shoff)+shSize+32, uint64(len(img)))},
	}
}

// TestParseMalformed feeds hostile images to Parse: every case must return
// an error — never panic, never succeed with out-of-range slices.
func TestParseMalformed(t *testing.T) {
	for _, tc := range malformedImages(t) {
		t.Run(tc.name, func(t *testing.T) {
			f, err := Parse(tc.img)
			if err == nil {
				t.Fatalf("Parse accepted malformed image: %+v", f)
			}
		})
	}
}

// TestParseDegenerate covers inputs that are unusual but legal: they must
// parse without error and without panicking.
func TestParseDegenerate(t *testing.T) {
	t.Run("zero-size-section", func(t *testing.T) {
		var b Builder
		b.Entry = 0x401000
		b.AddSection(".text", 0x401000, SHFAlloc|SHFExecinstr, nil)
		b.AddSection(".rodata", 0x402000, SHFAlloc, []byte{1, 2, 3})
		img, err := b.Write()
		if err != nil {
			t.Fatal(err)
		}
		f, err := Parse(img)
		if err != nil {
			t.Fatal(err)
		}
		s := f.Section(".text")
		if s == nil || len(s.Data) != 0 {
			t.Fatalf("zero-size section mangled: %+v", s)
		}
	})
	t.Run("shstrndx-out-of-range", func(t *testing.T) {
		// Names become unreadable but the file still parses.
		img := put16(baseImage(t), 62, 999)
		f, err := Parse(img)
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Sections) == 0 {
			t.Fatal("sections lost")
		}
	})
	t.Run("no-section-table", func(t *testing.T) {
		img := put64(baseImage(t), 40, 0) // shoff = 0
		f, err := Parse(img)
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Sections) != 0 {
			t.Fatal("phantom sections")
		}
		// Loader falls back to executable LOAD segments.
		if got := f.ExecutableSections(); len(got) != 1 || got[0].Name != ".load.x" {
			t.Fatalf("segment fallback broken: %+v", got)
		}
	})
}

// TestAddNobitsRoundTrip: NOBITS sections claim address space in the header
// table but occupy no file bytes and no LOAD segment.
func TestAddNobitsRoundTrip(t *testing.T) {
	var b Builder
	b.Entry = 0x401000
	code := bytes.Repeat([]byte{0xc3}, 16)
	b.AddSection(".text", 0x401000, SHFAlloc|SHFExecinstr, code)
	b.AddNobits(".bss", 0x403000, SHFAlloc|SHFWrite, 0x12345)
	img, err := b.Write()
	if err != nil {
		t.Fatal(err)
	}
	f, err := Parse(img)
	if err != nil {
		t.Fatal(err)
	}
	s := f.Section(".bss")
	if s == nil {
		t.Fatal(".bss missing")
	}
	if s.Type != SHTNobits || s.Size != 0x12345 || s.Data != nil {
		t.Fatalf("NOBITS mangled: %+v", s)
	}
	if text := f.Section(".text"); text == nil || !bytes.Equal(text.Data, code) {
		t.Fatal(".text mangled")
	}
	for _, seg := range f.Segments {
		if seg.Vaddr >= 0x403000 {
			t.Fatalf("NOBITS section got a LOAD segment: %+v", seg)
		}
	}
	if uint64(len(img)) > 0x3000 {
		t.Fatalf("NOBITS consumed file space: %d bytes", len(img))
	}
}

// TestFarSectionsSplitSegments: same-permission sections far apart must not
// be bridged with file padding — each gets its own LOAD segment.
func TestFarSectionsSplitSegments(t *testing.T) {
	var b Builder
	b.Entry = 0x401000
	b.AddSection(".text", 0x401000, SHFAlloc|SHFExecinstr, bytes.Repeat([]byte{0x90}, 16))
	b.AddSection(".text.cold", 0x401000+(1<<32), SHFAlloc|SHFExecinstr, bytes.Repeat([]byte{0xcc}, 16))
	img, err := b.Write()
	if err != nil {
		t.Fatal(err)
	}
	if len(img) > 1<<20 {
		t.Fatalf("far sections padded through the gap: image is %d bytes", len(img))
	}
	f, err := Parse(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Segments) != 2 {
		t.Fatalf("want 2 LOAD segments, got %d", len(f.Segments))
	}
	if got := f.ExecutableSections(); len(got) != 2 {
		t.Fatalf("want 2 executable sections, got %d", len(got))
	}
}
