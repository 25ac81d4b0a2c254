package bitstream

import "fmt"

// bitWriter packs bits MSB-first into a byte slice.
type bitWriter struct {
	buf  []byte
	nbit int
}

func (w *bitWriter) WriteBit(b bool) {
	if w.nbit%8 == 0 {
		w.buf = append(w.buf, 0)
	}
	if b {
		w.buf[len(w.buf)-1] |= 1 << uint(7-w.nbit%8)
	}
	w.nbit++
}

// WriteUint writes the low n bits of v, most significant first, filling
// the current byte a run of bits at a time.
func (w *bitWriter) WriteUint(v uint64, n int) {
	for n > 0 {
		if w.nbit%8 == 0 {
			w.buf = append(w.buf, 0)
		}
		free := 8 - w.nbit%8
		k := min(free, n)
		chunk := byte(v>>uint(n-k)) & (1<<uint(k) - 1)
		w.buf[len(w.buf)-1] |= chunk << uint(free-k)
		w.nbit += k
		n -= k
	}
}

func (w *bitWriter) Bytes() []byte { return w.buf }
func (w *bitWriter) Len() int      { return w.nbit }

// bitReader consumes bits MSB-first.
type bitReader struct {
	buf  []byte
	nbit int
}

func (r *bitReader) ReadBit() (bool, error) {
	if r.nbit >= 8*len(r.buf) {
		return false, fmt.Errorf("bitstream: truncated at bit %d", r.nbit)
	}
	b := r.buf[r.nbit/8]&(1<<uint(7-r.nbit%8)) != 0
	r.nbit++
	return b, nil
}

// ReadUint reads n bits, most significant first, a byte's run at a time.
func (r *bitReader) ReadUint(n int) (uint64, error) {
	if r.nbit+n > 8*len(r.buf) {
		return 0, fmt.Errorf("bitstream: truncated at bit %d", 8*len(r.buf))
	}
	var v uint64
	for n > 0 {
		off := r.nbit % 8
		k := min(8-off, n)
		b := r.buf[r.nbit/8] >> uint(8-off-k) & (1<<uint(k) - 1)
		v = v<<uint(k) | uint64(b)
		r.nbit += k
		n -= k
	}
	return v, nil
}

// bitsFor returns the bits needed to encode values in [0, n).
func bitsFor(n int) int {
	b := 0
	for 1<<uint(b) < n {
		b++
	}
	return b
}
