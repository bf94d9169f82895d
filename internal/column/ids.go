package column

import "aggcache/internal/vec"

// idVector is the value-ID storage of a main column. Two representations
// exist: plain bit-packing, and run-length encoding for columns whose IDs
// form runs — after a delta merge the tid columns do, because rows are
// laid out in insertion order and a business object spans several rows.
// The builder picks the smaller representation (paper Sec. 6.2's premise
// that main storage compresses the temporal columns well).
type idVector interface {
	Len() int
	Get(i int) uint64
	MemBytes() uint64
}

// packedIDs is the plain fixed-width representation.
type packedIDs struct {
	p *vec.Packed
}

func (v packedIDs) Len() int         { return v.p.Len() }
func (v packedIDs) Get(i int) uint64 { return v.p.Get(i) }
func (v packedIDs) MemBytes() uint64 { return v.p.MemBytes() }

// rleIDs stores one entry per run plus a sampled row→run index so random
// access costs a bounded forward scan instead of a binary search.
type rleIDs struct {
	n      int
	starts []int32     // row index where run r begins; len = runs
	ids    *vec.Packed // value ID of run r
	// samples[b] is the run containing row b<<sampleShift.
	samples []uint32
}

const sampleShift = 6 // one sample per 64 rows

func (v *rleIDs) Len() int { return v.n }

func (v *rleIDs) Get(i int) uint64 {
	r := int(v.samples[i>>sampleShift])
	for r+1 < len(v.starts) && int(v.starts[r+1]) <= i {
		r++
	}
	return v.ids.Get(r)
}

func (v *rleIDs) MemBytes() uint64 {
	return uint64(len(v.starts))*4 + v.ids.MemBytes() + uint64(len(v.samples))*4
}

// idVectorGather loads the value IDs of the given rows into dst, resolving
// the representation once per call instead of once per row.
func idVectorGather(v idVector, rows []int32, dst []uint32) {
	switch ids := v.(type) {
	case packedIDs:
		ids.p.Gather(rows, dst)
	default:
		for i, r := range rows {
			dst[i] = uint32(v.Get(int(r)))
		}
	}
}

// buildIDVector encodes per-row value IDs with the cheaper representation.
// bits is the ID width implied by the dictionary size.
func buildIDVector(rowIDs []uint32, bits uint) idVector {
	n := len(rowIDs)
	runs := 0
	for i := 0; i < n; i++ {
		if i == 0 || rowIDs[i] != rowIDs[i-1] {
			runs++
		}
	}
	packedBytes := (uint64(n)*uint64(bits) + 7) / 8
	rleBytes := uint64(runs)*4 + (uint64(runs)*uint64(bits)+7)/8 + uint64(n>>sampleShift+1)*4
	if n == 0 || rleBytes >= packedBytes {
		p := vec.NewPacked(bits, n)
		for i, id := range rowIDs {
			p.Set(i, uint64(id))
		}
		return packedIDs{p: p}
	}

	v := &rleIDs{
		n:       n,
		starts:  make([]int32, 0, runs),
		ids:     vec.NewPacked(bits, runs),
		samples: make([]uint32, n>>sampleShift+1),
	}
	r := -1
	for i, id := range rowIDs {
		if i == 0 || id != rowIDs[i-1] {
			r++
			v.starts = append(v.starts, int32(i))
			v.ids.Set(r, uint64(id))
		}
		if i&(1<<sampleShift-1) == 0 {
			v.samples[i>>sampleShift] = uint32(r)
		}
	}
	return v
}
