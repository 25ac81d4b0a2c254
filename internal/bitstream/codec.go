package bitstream

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"

	"fpgaflow/internal/arch"
	"fpgaflow/internal/rrgraph"
)

// Binary format:
//
//	magic "DAGR", version u8
//	model name (u16 len + bytes)
//	arch parameters needed to rebuild the routing graph
//	pad table (u32 count, entries: x,y,sub u16; flags u8; pin u16; name)
//	CLB frames in (x, y) order, bit-packed
//	routing frame: one bit per configurable edge in ordinal order
//	(rrgraph.Graph.ConfigEdge: wire-wire switches counted once, from < to)
//	trailing u32 bit count (integrity check)
const (
	magic   = "DAGR"
	version = 1
)

// Encode serializes the bitstream.
func Encode(bs *Bitstream) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(magic)
	buf.WriteByte(version)
	writeString(&buf, bs.ModelName)

	a := bs.Arch
	hdr := []uint32{
		uint32(a.Rows), uint32(a.Cols), uint32(a.IORate),
		uint32(a.CLB.N), uint32(a.CLB.K), uint32(a.CLB.I), uint32(a.CLB.ClockPins),
		boolBit(a.CLB.GatedClock), boolBit(a.CLB.DoubleEdgeFF),
		uint32(a.Routing.ChannelWidth), uint32(a.Routing.SegmentLength), uint32(a.Routing.Fs),
		uint32(a.Routing.Switch),
	}
	// binary.Write into a bytes.Buffer cannot fail.
	for _, v := range hdr {
		_ = binary.Write(&buf, binary.BigEndian, v)
	}
	for _, f := range []float64{a.Routing.FcIn, a.Routing.FcOut,
		a.Routing.SwitchWidthMult, a.Routing.WireWidthMult, a.Routing.WireSpacingMult} {
		_ = binary.Write(&buf, binary.BigEndian, math.Float64bits(f))
	}

	// Pad table.
	_ = binary.Write(&buf, binary.BigEndian, uint32(len(bs.Pads)))
	for _, key := range sortedPadKeys(bs) {
		pad := bs.Pads[key]
		_ = binary.Write(&buf, binary.BigEndian, uint16(key[0]))
		_ = binary.Write(&buf, binary.BigEndian, uint16(key[1]))
		_ = binary.Write(&buf, binary.BigEndian, uint16(key[2]))
		flags := byte(0)
		if pad.Used {
			flags |= 1
		}
		if pad.Input {
			flags |= 2
		}
		buf.WriteByte(flags)
		_ = binary.Write(&buf, binary.BigEndian, uint16(pad.PinIdx))
		writeString(&buf, pad.Name)
	}

	// Configuration bits.
	n := bs.Graph.NumConfigEdges()
	w := &bitWriter{buf: make([]byte, 0, (clbFrameBits(a)+int64(n)+7)/8)}
	encodeCLBs(w, bs)
	encodeRouting(w, bs.Routing, n)
	_ = binary.Write(&buf, binary.BigEndian, uint32(w.Len()))
	buf.Write(w.Bytes())
	return buf.Bytes(), nil
}

// Decode parses a bitstream produced by Encode, building the routing graph
// its header describes. The technology section of the architecture is
// restored from the defaults (the configuration itself is technology
// independent, paper §4.1 feature i).
func Decode(data []byte) (*Bitstream, error) { return DecodeOn(data, nil) }

// DecodeOn is Decode over a caller's graph, such as the one the design was
// routed on, so nothing is rebuilt: it rejects a header whose grid, CLB or
// routing parameters differ from g.Arch. A nil g builds the header's graph.
func DecodeOn(data []byte, g *rrgraph.Graph) (*Bitstream, error) {
	buf := bytes.NewReader(data)
	head := make([]byte, 5)
	if _, err := io.ReadFull(buf, head); err != nil || string(head[:4]) != magic {
		return nil, fmt.Errorf("bitstream: bad magic")
	}
	if head[4] != version {
		return nil, fmt.Errorf("bitstream: unsupported version %d", head[4])
	}
	model, err := readString(buf)
	if err != nil {
		return nil, err
	}
	var hdr [13]uint32
	for i := range hdr {
		if err := binary.Read(buf, binary.BigEndian, &hdr[i]); err != nil {
			return nil, fmt.Errorf("bitstream: header: %w", err)
		}
	}
	var floats [5]float64
	for i := range floats {
		var b uint64
		if err := binary.Read(buf, binary.BigEndian, &b); err != nil {
			return nil, fmt.Errorf("bitstream: header floats: %w", err)
		}
		floats[i] = math.Float64frombits(b)
	}
	a := arch.Paper()
	a.Rows, a.Cols, a.IORate = int(hdr[0]), int(hdr[1]), int(hdr[2])
	a.CLB.N, a.CLB.K, a.CLB.I, a.CLB.ClockPins = int(hdr[3]), int(hdr[4]), int(hdr[5]), int(hdr[6])
	a.CLB.GatedClock, a.CLB.DoubleEdgeFF = hdr[7] != 0, hdr[8] != 0
	a.Routing.ChannelWidth, a.Routing.SegmentLength, a.Routing.Fs = int(hdr[9]), int(hdr[10]), int(hdr[11])
	a.Routing.Switch = arch.SwitchKind(hdr[12])
	a.Routing.FcIn, a.Routing.FcOut = floats[0], floats[1]
	a.Routing.SwitchWidthMult, a.Routing.WireWidthMult, a.Routing.WireSpacingMult = floats[2], floats[3], floats[4]
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("bitstream: %w", err)
	}
	// Size sanity before any geometry-sized allocation: the CLB frames alone
	// need clbFrameBits bits, so a stream with fewer remaining bytes is
	// corrupt no matter what its pad table says. Without this gate a forged
	// header (huge grid, large N/K) makes newBitstream/rrgraph.Build allocate
	// gigabytes for a kilobyte-sized input.
	if need := clbFrameBits(a); int64(buf.Len())*8 < need {
		return nil, fmt.Errorf("bitstream: header declares a fabric needing >= %d config bits, %d bytes remain", need, buf.Len())
	}
	if g == nil {
		if g, err = rrgraph.Build(a); err != nil {
			return nil, err
		}
	} else if err := archCompatible(a, g.Arch); err != nil {
		return nil, err
	}
	bs := newBitstream(a, g, model)

	var nPads uint32
	if err := binary.Read(buf, binary.BigEndian, &nPads); err != nil {
		return nil, err
	}
	for i := uint32(0); i < nPads; i++ {
		var x, y, sub, pin uint16
		var flags byte
		if err := binary.Read(buf, binary.BigEndian, &x); err != nil {
			return nil, err
		}
		// Previously these two reads dropped their errors, so a stream
		// truncated mid-pad-entry decoded to a pad at a wrong site instead
		// of failing (latent bug found by the droppederror analyzer).
		if err := binary.Read(buf, binary.BigEndian, &y); err != nil {
			return nil, err
		}
		if err := binary.Read(buf, binary.BigEndian, &sub); err != nil {
			return nil, err
		}
		flags, err = buf.ReadByte()
		if err != nil {
			return nil, err
		}
		if err := binary.Read(buf, binary.BigEndian, &pin); err != nil {
			return nil, err
		}
		name, err := readString(buf)
		if err != nil {
			return nil, err
		}
		onX := int(x) == 0 || int(x) == a.Cols+1
		onY := int(y) == 0 || int(y) == a.Rows+1
		if int(x) > a.Cols+1 || int(y) > a.Rows+1 || onX == onY {
			return nil, fmt.Errorf("bitstream: pad %q at (%d,%d) is not an I/O site", name, x, y)
		}
		if int(sub) >= a.IORate || int(pin) >= a.IORate {
			return nil, fmt.Errorf("bitstream: pad %q sub/pin %d/%d exceeds IO rate %d", name, sub, pin, a.IORate)
		}
		bs.Pads[[3]int{int(x), int(y), int(sub)}] = &PadConfig{
			Used: flags&1 != 0, Input: flags&2 != 0, Name: name, PinIdx: int(pin),
		}
	}

	var nbits uint32
	if err := binary.Read(buf, binary.BigEndian, &nbits); err != nil {
		return nil, err
	}
	rest := data[len(data)-buf.Len():]
	if len(rest)*8 < int(nbits) {
		return nil, fmt.Errorf("bitstream: %d config bits declared, %d available", nbits, len(rest)*8)
	}
	r := &bitReader{buf: rest}
	if err := decodeCLBs(r, bs); err != nil {
		return nil, err
	}
	if err := decodeRouting(r, bs.Routing, g.NumConfigEdges()); err != nil {
		return nil, err
	}
	if r.nbit != int(nbits) {
		return nil, fmt.Errorf("bitstream: consumed %d bits, declared %d", r.nbit, nbits)
	}
	return bs, nil
}

func encodeCLBs(w *bitWriter, bs *Bitstream) {
	a := bs.Arch
	selBits := bitsFor(a.CLB.I + a.CLB.N)
	outBits := bitsFor(a.CLB.N)
	for x := 0; x < a.Cols; x++ {
		for y := 0; y < a.Rows; y++ {
			cfg := bs.CLBs[x][y]
			for i := range cfg.BLEs {
				b := &cfg.BLEs[i]
				for _, bit := range b.LUT {
					w.WriteBit(bit)
				}
				w.WriteBit(b.Registered)
				w.WriteBit(b.Init)
				w.WriteBit(b.ClockEnabled)
				for _, sel := range b.InputSel {
					w.WriteUint(uint64(sel), selBits)
				}
			}
			for _, sel := range cfg.OutputSel {
				w.WriteUint(uint64(sel), outBits)
			}
			w.WriteBit(cfg.ClockEnabled)
		}
	}
}

func decodeCLBs(r *bitReader, bs *Bitstream) error {
	a := bs.Arch
	selBits := bitsFor(a.CLB.I + a.CLB.N)
	outBits := bitsFor(a.CLB.N)
	for x := 0; x < a.Cols; x++ {
		for y := 0; y < a.Rows; y++ {
			cfg := bs.CLBs[x][y]
			for i := range cfg.BLEs {
				b := &cfg.BLEs[i]
				for j := range b.LUT {
					bit, err := r.ReadBit()
					if err != nil {
						return err
					}
					b.LUT[j] = bit
				}
				var err error
				if b.Registered, err = r.ReadBit(); err != nil {
					return err
				}
				if b.Init, err = r.ReadBit(); err != nil {
					return err
				}
				if b.ClockEnabled, err = r.ReadBit(); err != nil {
					return err
				}
				for j := range b.InputSel {
					v, err := r.ReadUint(selBits)
					if err != nil {
						return err
					}
					b.InputSel[j] = int(v)
				}
			}
			for j := range cfg.OutputSel {
				v, err := r.ReadUint(outBits)
				if err != nil {
					return err
				}
				cfg.OutputSel[j] = int(v)
			}
			var err error
			if cfg.ClockEnabled, err = r.ReadBit(); err != nil {
				return err
			}
		}
	}
	return nil
}

// encodeRouting writes the routing frame: the first n bits of words, in
// ordinal order, 64 at a time.
func encodeRouting(w *bitWriter, words []uint64, n int) {
	//fpga:hotloop
	for i := 0; i < n; i += 64 {
		k := min(64, n-i)
		// Bit 0 (the lowest ordinal) goes out first, so reverse the word.
		w.WriteUint(bits.Reverse64(words[i/64])>>uint(64-k), k)
	}
}

// decodeRouting reads the n-bit routing frame into words.
func decodeRouting(r *bitReader, words []uint64, n int) error {
	//fpga:hotloop
	for i := 0; i < n; i += 64 {
		k := min(64, n-i)
		v, err := r.ReadUint(k)
		if err != nil {
			return err
		}
		words[i/64] = bits.Reverse64(v << uint(64-k))
	}
	return nil
}

// clbFrameBits computes, in constant time, the exact number of bits the
// CLB frames of an architecture occupy (a lower bound on the whole
// configuration, which adds the routing frame on top). Kept in int64:
// with Validate's bounds the worst case is ~2^48, past int32.
func clbFrameBits(a *arch.Arch) int64 {
	selBits := int64(bitsFor(a.CLB.I + a.CLB.N))
	outBits := int64(bitsFor(a.CLB.N))
	perBLE := int64(1)<<uint(a.CLB.K) + 3 + int64(a.CLB.K)*selBits
	perTile := int64(a.CLB.N)*perBLE + int64(a.CLB.Outputs())*outBits + 1
	return int64(a.Cols) * int64(a.Rows) * perTile
}

// NumConfigBits reports the size of the configuration for an architecture.
func NumConfigBits(a *arch.Arch) (int, error) {
	g, err := rrgraph.Build(a)
	if err != nil {
		return 0, err
	}
	return int(clbFrameBits(a)) + g.NumConfigEdges(), nil
}

func writeString(buf *bytes.Buffer, s string) {
	_ = binary.Write(buf, binary.BigEndian, uint16(len(s)))
	buf.WriteString(s)
}

func readString(buf *bytes.Reader) (string, error) {
	var n uint16
	if err := binary.Read(buf, binary.BigEndian, &n); err != nil {
		return "", err
	}
	// bytes.Reader.Read returns a short count without error on truncated
	// input; ReadFull turns that into ErrUnexpectedEOF instead of a
	// silently zero-padded name.
	b := make([]byte, n)
	if _, err := io.ReadFull(buf, b); err != nil {
		return "", err
	}
	return string(b), nil
}

func boolBit(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func sortedPadKeys(bs *Bitstream) [][3]int {
	keys := make([][3]int, 0, len(bs.Pads))
	for k := range bs.Pads {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && lessPad(keys[j], keys[j-1]); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

func lessPad(a, b [3]int) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	if a[1] != b[1] {
		return a[1] < b[1]
	}
	return a[2] < b[2]
}
