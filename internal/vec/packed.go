package vec

import "fmt"

// Packed is an immutable-width, fixed-bit-width unsigned integer vector.
// Main-store columns use it to hold dictionary value IDs with
// ceil(log2(dictSize)) bits per entry, mirroring the bit-packed value-ID
// arrays of a read-optimized columnar main store.
type Packed struct {
	words []uint64
	bits  uint // bits per entry, 1..64
	n     int
}

// NewPacked creates a packed vector with n entries of the given bit width.
// All entries start at zero.
func NewPacked(bitWidth uint, n int) *Packed {
	if bitWidth == 0 || bitWidth > 64 {
		panic(fmt.Sprintf("vec: invalid packed bit width %d", bitWidth))
	}
	if n < 0 {
		panic("vec: negative packed length")
	}
	totalBits := uint64(n) * uint64(bitWidth)
	return &Packed{
		words: make([]uint64, (totalBits+wordBits-1)/wordBits),
		bits:  bitWidth,
		n:     n,
	}
}

// BitsFor returns the minimal bit width able to represent values in
// [0, max]. BitsFor(0) is 1 so that empty or single-entry dictionaries
// still get a valid vector.
func BitsFor(max uint64) uint {
	w := uint(1)
	for max>>w != 0 {
		w++
	}
	return w
}

// Len reports the number of entries.
func (p *Packed) Len() int { return p.n }

// Bits reports the per-entry bit width.
func (p *Packed) Bits() uint { return p.bits }

// Set stores v at index i. v must fit in the configured bit width.
func (p *Packed) Set(i int, v uint64) {
	if i < 0 || i >= p.n {
		panic(fmt.Sprintf("vec: packed index %d out of range [0,%d)", i, p.n))
	}
	if p.bits < 64 && v>>p.bits != 0 {
		panic(fmt.Sprintf("vec: value %d does not fit in %d bits", v, p.bits))
	}
	bitPos := uint64(i) * uint64(p.bits)
	wi, off := bitPos/wordBits, uint(bitPos%wordBits)
	mask := p.mask()
	p.words[wi] = p.words[wi]&^(mask<<off) | v<<off
	if spill := off + p.bits; spill > wordBits {
		hi := p.bits - (wordBits - off)
		p.words[wi+1] = p.words[wi+1]&^(mask>>(p.bits-hi)) | v>>(p.bits-hi)
	}
}

// Get loads the value at index i.
func (p *Packed) Get(i int) uint64 {
	if uint(i) >= uint(p.n) {
		p.outOfRange(i)
	}
	bitPos := uint64(i) * uint64(p.bits)
	wi, off := bitPos/wordBits, uint(bitPos%wordBits)
	v := p.words[wi] >> off
	if spill := off + p.bits; spill > wordBits {
		v |= p.words[wi+1] << (wordBits - off)
	}
	return v & p.mask()
}

// Gather loads the entries at the given indices into dst[:len(rows)],
// truncated to their low 32 bits — the width of a dictionary value ID.
// Width and mask are resolved once per call instead of once per entry; an
// index out of range panics as Get does.
func (p *Packed) Gather(rows []int32, dst []uint32) {
	words, bits, n, mask := p.words, uint64(p.bits), uint(p.n), p.mask()
	dst = dst[:len(rows)]
	for i, r := range rows {
		if uint(r) >= n {
			p.outOfRange(int(r))
		}
		bitPos := uint64(r) * bits
		wi, off := bitPos/wordBits, bitPos%wordBits
		v := words[wi] >> off
		if off+bits > wordBits {
			v |= words[wi+1] << (wordBits - off)
		}
		dst[i] = uint32(v & mask)
	}
}

// Unpack loads the entries [start, start+len(dst)) into dst, truncated to
// their low 32 bits as Gather does, walking the words sequentially. A range
// reaching outside [0, Len()) panics.
func (p *Packed) Unpack(start int, dst []uint32) {
	if start < 0 || start+len(dst) > p.n {
		p.outOfRange(start + len(dst) - 1)
	}
	words, bits, mask := p.words, uint64(p.bits), p.mask()
	bitPos := uint64(start) * bits
	for i := range dst {
		wi, off := bitPos/wordBits, bitPos%wordBits
		v := words[wi] >> off
		if off+bits > wordBits {
			v |= words[wi+1] << (wordBits - off)
		}
		dst[i] = uint32(v & mask)
		bitPos += bits
	}
}

// outOfRange panics for an index outside [0, Len()). It is kept out of line
// so the panic's formatting stays out of the Get and Gather loops.
//
//go:noinline
func (p *Packed) outOfRange(i int) {
	panic(fmt.Sprintf("vec: packed index %d out of range [0,%d)", i, p.n))
}

func (p *Packed) mask() uint64 {
	if p.bits == 64 {
		return ^uint64(0)
	}
	return 1<<p.bits - 1
}

// MemBytes returns the heap footprint of the vector's payload in bytes.
func (p *Packed) MemBytes() uint64 { return uint64(len(p.words)) * 8 }
