package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"probedis/internal/elfx"
	"probedis/internal/eval"
	"probedis/internal/synth"
)

// pinnedInput is a real binary installed on the benchmark machine. The
// benchmark refuses to run when one is missing or its contents differ
// from the recorded digest: numbers from another build of nm or libc
// are not comparable.
type pinnedInput struct {
	name   string
	path   func() (string, error)
	sha256 string
}

var (
	pinnedNM = pinnedInput{
		name: "nm",
		path: func() (string, error) {
			out, err := exec.Command("go", "env", "GOTOOLDIR").Output()
			if err != nil {
				return "", fmt.Errorf("go env GOTOOLDIR: %w", err)
			}
			return filepath.Join(strings.TrimSpace(string(out)), "nm"), nil
		},
		sha256: "884932f13c82acdbd322418e4dba8451a20d352e314425469051f6b5ec2987b2",
	}
	pinnedLibc = pinnedInput{
		name:   "libc",
		path:   func() (string, error) { return "/usr/lib/x86_64-linux-gnu/libc.so.6", nil },
		sha256: "6b4a45352fd0c540a9c7c718f35ce8c8e46a4e482f9d3885a910c32d1a0e1421",
	}
)

// load reads the binary and checks its digest.
func (p pinnedInput) load() ([]byte, error) {
	path, err := p.path()
	if err != nil {
		return nil, fmt.Errorf("pinned input %s: %w", p.name, err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("pinned input %s: %w", p.name, err)
	}
	sum := sha256.Sum256(img)
	if got := hex.EncodeToString(sum[:]); got != p.sha256 {
		return nil, fmt.Errorf("pinned input %s (%s): sha256 %s, want %s", p.name, path, got, p.sha256)
	}
	return img, nil
}

// input is one ELF image a library workload disassembles.
type input struct {
	name string
	img  []byte
	// truth is the byte-exact ground truth of the executable section
	// at truthBase; nil for inputs without truth.
	truth     *synth.Truth
	truthBase uint64
}

// corpusPerProfile is how many synthetic binaries each profile gives the
// truth corpus; corpusFuncs is the pinned accuracy manifest's size.
const (
	corpusPerProfile = 10
	corpusFuncs      = 40
)

// corpusSeed maps the benchmark seed and a per-profile index to a
// generator seed in the evaluation range: below the training range
// (>= 1,000,000) and above the pinned accuracy manifest's seeds.
func corpusSeed(seed int64, j int) int64 {
	s := seed % 98_000
	if s < 0 {
		s += 98_000
	}
	return 10_000 + s*10 + int64(j)
}

// truthCorpus draws corpusPerProfile binaries from every synthetic
// profile, then adds the real binaries with compiler-extracted truth.
func truthCorpus(root string, seed int64) ([]input, error) {
	var out []input
	for _, p := range synth.AllProfiles() {
		for j := 0; j < corpusPerProfile; j++ {
			b, err := synth.Generate(synth.Config{Seed: corpusSeed(seed, j), Profile: p, NumFuncs: corpusFuncs})
			if err != nil {
				return nil, err
			}
			img, err := b.ELF()
			if err != nil {
				return nil, err
			}
			out = append(out, input{name: b.Name, img: img, truth: b.Truth, truthBase: b.Base})
		}
	}
	dir := filepath.Join(root, "testdata", "real")
	real, err := eval.LoadReal(dir)
	if err != nil {
		return nil, fmt.Errorf("compiler-truth binaries: %w", err)
	}
	for _, b := range real {
		img, err := os.ReadFile(filepath.Join(dir, b.Name+".elf"))
		if err != nil {
			return nil, err
		}
		out = append(out, input{name: b.Name, img: img, truth: b.Truth, truthBase: b.Base})
	}
	return out, nil
}

// trailerMagic starts every key trailer (see keyTrailer).
var trailerMagic = []byte("PBKEY\x00\x00\x00")

// keyTrailer is 24 bytes to append past the end of an image: a distinct
// request body, hence a distinct cache key, whose analysed bytes are
// exactly the original's. salt comes from the run's seed, so no two runs
// share keys and a store directory from an earlier run could never
// answer.
func keyTrailer(salt uint64, key int) []byte {
	out := append([]byte(nil), trailerMagic...)
	out = binary.LittleEndian.AppendUint64(out, salt)
	return binary.LittleEndian.AppendUint64(out, uint64(key))
}

// checkTrailerTransparent proves that a trailer leaves the executable
// sections the parser sees untouched.
func checkTrailerTransparent(img []byte) error {
	a, err := elfx.Parse(img)
	if err != nil {
		return err
	}
	b, err := elfx.Parse(append(append([]byte(nil), img...), keyTrailer(1, 1)...))
	if err != nil {
		return fmt.Errorf("image with key trailer: %w", err)
	}
	as, bs := a.ExecutableSections(), b.ExecutableSections()
	if len(as) != len(bs) || a.Entry != b.Entry {
		return fmt.Errorf("key trailer changed the parsed image")
	}
	for i := range as {
		if as[i].Addr != bs[i].Addr || !bytes.Equal(as[i].Data, bs[i].Data) {
			return fmt.Errorf("key trailer changed section %s", as[i].Name)
		}
	}
	return nil
}

// smallBodies generates one synthetic single-section image from each of
// the first n profiles, each under the server's in-memory spool
// threshold.
func smallBodies(seed int64, n int) ([][]byte, error) {
	profiles := synth.AllProfiles()
	if n > len(profiles) {
		return nil, fmt.Errorf("smallBodies: %d bodies, %d profiles", n, len(profiles))
	}
	var out [][]byte
	for _, p := range profiles[:n] {
		b, err := synth.Generate(synth.Config{Seed: corpusSeed(seed, 9), Profile: p, NumFuncs: corpusFuncs})
		if err != nil {
			return nil, err
		}
		img, err := b.ELF()
		if err != nil {
			return nil, err
		}
		out = append(out, img)
	}
	return out, nil
}
