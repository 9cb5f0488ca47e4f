package mem

// Coalesce groups the byte addresses touched by a warp's global/local
// memory instruction into the minimal set of aligned segments
// (transactions) of segBytes each, the way the GPU's coalescing unit
// does, and appends them to dst. Accesses spanning a segment boundary
// contribute to both segments. The appended segments are in
// first-touch order, which is deterministic for a given warp.
//
// A warp touches at most two segments per lane, so the duplicate check
// is a linear scan over the segments appended so far; the caller's
// buffer makes the steady state allocation-free.
func Coalesce(dst, addrs []uint64, accessBytes, segBytes int) []uint64 {
	mask := ^(uint64(segBytes) - 1)
	start := len(dst)
	for _, a := range addrs {
		dst = appendSeg(dst, start, a&mask)
		if end := (a + uint64(accessBytes) - 1) & mask; end != a&mask {
			dst = appendSeg(dst, start, end)
		}
	}
	return dst
}

// appendSeg appends base to dst unless dst[start:] already holds it.
// The newest segment is checked first: consecutive lanes usually share
// one.
func appendSeg(dst []uint64, start int, base uint64) []uint64 {
	for i := len(dst) - 1; i >= start; i-- {
		if dst[i] == base {
			return dst
		}
	}
	return append(dst, base)
}
