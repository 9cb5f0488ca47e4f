package mem

import (
	"math/rand"
	"slices"
	"testing"
)

// coalesceRef is the original map-based coalescer, kept as the oracle
// for the allocation-free Coalesce.
func coalesceRef(addrs []uint64, accessBytes int, segBytes int) []uint64 {
	if len(addrs) == 0 {
		return nil
	}
	seg := uint64(segBytes)
	var out []uint64
	seen := make(map[uint64]struct{}, 4)
	add := func(a uint64) {
		base := a &^ (seg - 1)
		if _, dup := seen[base]; !dup {
			seen[base] = struct{}{}
			out = append(out, base)
		}
	}
	for _, a := range addrs {
		add(a)
		if end := a + uint64(accessBytes) - 1; end&^(seg-1) != a&^(seg-1) {
			add(end)
		}
	}
	return out
}

// conflictCyclesRef is the original map-based bank-conflict count,
// kept as the oracle for Shared.ConflictCyclesFor.
func conflictCyclesRef(cfg SharedConfig, addrs []uint64) int64 {
	if len(addrs) == 0 {
		return 0
	}
	type bw struct {
		bank int
		word uint64
	}
	seen := make(map[bw]struct{}, len(addrs))
	perBank := make(map[int]int64, cfg.Banks)
	for _, a := range addrs {
		word := a / uint64(cfg.BankWidth)
		bank := int(word % uint64(cfg.Banks))
		k := bw{bank, word}
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		perBank[bank]++
	}
	var maxC int64 = 1
	for _, c := range perBank {
		if c > maxC {
			maxC = c
		}
	}
	return maxC
}

// warpAddrs draws the active-lane addresses of one random warp access:
// broadcasts, unit and power-of-two strides, random scatter over a
// small window (many duplicates and conflicts), and runs placed just
// below a segment boundary so accesses straddle it.
func warpAddrs(rng *rand.Rand) []uint64 {
	n := 1 + rng.Intn(64)
	out := make([]uint64, n)
	base := uint64(rng.Intn(1 << 16))
	switch rng.Intn(5) {
	case 0: // broadcast, possibly with a few stragglers
		for i := range out {
			out[i] = base
			if rng.Intn(8) == 0 {
				out[i] = base + uint64(rng.Intn(64))
			}
		}
	case 1: // strided
		stride := uint64(1) << rng.Intn(9)
		for i := range out {
			out[i] = base + uint64(i)*stride
		}
	case 2: // scatter over a small window
		for i := range out {
			out[i] = base + uint64(rng.Intn(256))
		}
	case 3: // straddling: start a few bytes below a 128-byte boundary
		start := (base | 127) - uint64(rng.Intn(8))
		for i := range out {
			out[i] = start + uint64(i)*uint64(1+rng.Intn(8))
		}
	default: // wide scatter
		for i := range out {
			out[i] = uint64(rng.Intn(1 << 20))
		}
	}
	return out
}

// TestCoalesceMatchesReference compares Coalesce against the map-based
// oracle on random warps, with and without leftover buffer contents.
func TestCoalesceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var buf []uint64
	for i := 0; i < 5000; i++ {
		addrs := warpAddrs(rng)
		size := []int{1, 2, 4, 8, 16}[rng.Intn(5)]
		seg := []int{32, 64, 128}[rng.Intn(3)]
		want := coalesceRef(addrs, size, seg)

		buf = Coalesce(buf[:0], addrs, size, seg)
		if !slices.Equal(buf, want) {
			t.Fatalf("case %d (size %d, seg %d): got %v, want %v", i, size, seg, buf, want)
		}
		// Appending after unrelated contents leaves them alone and
		// deduplicates only among the new segments.
		prefix := []uint64{want[0], 7}
		got := Coalesce(slices.Clone(prefix), addrs, size, seg)
		if !slices.Equal(got[:2], prefix) || !slices.Equal(got[2:], want) {
			t.Fatalf("case %d: append after %v gave %v, want %v", i, prefix, got, want)
		}
	}
}

// TestConflictCyclesMatchesReference compares ConflictCyclesFor against
// the map-based oracle across bank geometries, including non-power-of-
// two bank counts and 8-byte banks, and checks the accumulated stats.
func TestConflictCyclesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, banks := range []int{1, 3, 7, 12, 16, 17, 32} {
		for _, width := range []int{1, 2, 4, 8} {
			cfg := SharedConfig{SizeBytes: 1 << 10, Banks: banks, BankWidth: width}
			s := NewShared(cfg)
			var wantConflicts int64
			for i := 0; i < 500; i++ {
				addrs := warpAddrs(rng)
				want := conflictCyclesRef(cfg, addrs)
				if got := s.ConflictCyclesFor(addrs); got != want {
					t.Fatalf("banks %d width %d case %d: got %d, want %d (addrs %v)",
						banks, width, i, got, want, addrs)
				}
				wantConflicts += want - 1
			}
			if s.Accesses != 500 || s.ConflictCycles != wantConflicts {
				t.Fatalf("banks %d width %d: stats %d accesses / %d conflict cycles, want 500 / %d",
					banks, width, s.Accesses, s.ConflictCycles, wantConflicts)
			}
		}
	}
}

// TestMemPathAllocationFree pins the steady state of the per-access
// helpers at zero allocations.
func TestMemPathAllocationFree(t *testing.T) {
	addrs := make([]uint64, 32)
	for i := range addrs {
		addrs[i] = uint64(i*36 + 120) // strided, straddling, conflicting
	}
	buf := make([]uint64, 0, 64)
	if n := testing.AllocsPerRun(100, func() { buf = Coalesce(buf[:0], addrs, 4, 128) }); n != 0 {
		t.Errorf("Coalesce: %v allocs per call, want 0", n)
	}
	s := NewShared(DefaultSharedConfig)
	if n := testing.AllocsPerRun(100, func() { s.ConflictCyclesFor(addrs) }); n != 0 {
		t.Errorf("ConflictCyclesFor: %v allocs per call, want 0", n)
	}
	c := MustNewCache(CacheConfig{Name: "a", SizeBytes: 16 << 10, Assoc: 4, LineBytes: 128})
	if n := testing.AllocsPerRun(10, func() { MustNewCache(c.Config()) }); n > 2 {
		t.Errorf("NewCache: %v allocs, want at most 2 (the cache and one line slab)", n)
	}
}
