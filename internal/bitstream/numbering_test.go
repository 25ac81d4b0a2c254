package bitstream

import (
	"math/bits"
	"testing"

	"fpgaflow/internal/arch"
	"fpgaflow/internal/rrgraph"
)

// referenceConfigurableEdges is the routing-frame enumeration the codec
// used before the graph numbered its configurable edges: every
// programmable connection in node order, then edge order within a node,
// with each wire-wire switch once (from < to). It is the oracle the
// graph's numbering must reproduce, so the `.bit` format stays unchanged.
func referenceConfigurableEdges(g *rrgraph.Graph) [][2]int {
	var out [][2]int
	for from, ft := range g.Type {
		for _, e := range g.Edges(from) {
			to, tt := int(e), g.Type[e]
			switch {
			case ft.IsWire() && tt.IsWire():
				if from < to {
					out = append(out, [2]int{from, to})
				}
			case ft == rrgraph.OPin && tt.IsWire():
				out = append(out, [2]int{from, to})
			case ft.IsWire() && tt == rrgraph.IPin:
				out = append(out, [2]int{from, to})
			}
		}
	}
	return out
}

func numberingArchs() map[string]*arch.Arch {
	archs := map[string]*arch.Arch{}
	add := func(name string, edit func(a *arch.Arch)) {
		a := arch.Paper()
		a.Rows, a.Cols = 4, 5
		edit(a)
		archs[name] = a
	}
	add("paper-8x8-W16", func(a *arch.Arch) { a.Rows, a.Cols = 8, 8 })
	add("W1", func(a *arch.Arch) { a.Routing.ChannelWidth = 1 })
	add("seg2", func(a *arch.Arch) { a.Routing.SegmentLength = 2 })
	add("seg4-W6", func(a *arch.Arch) { a.Routing.SegmentLength, a.Routing.ChannelWidth = 4, 6 })
	add("tristate", func(a *arch.Arch) { a.Routing.Switch = arch.SwitchTriState })
	add("tristate-seg3-fc", func(a *arch.Arch) {
		a.Routing.Switch = arch.SwitchTriState
		a.Routing.SegmentLength = 3
		a.Routing.FcIn, a.Routing.FcOut = 0.5, 0.25
	})
	add("N2-I8-IO1", func(a *arch.Arch) { a.CLB.N, a.CLB.I, a.IORate = 2, 8, 1 })
	return archs
}

// TestConfigEdgeNumberingMatchesReference checks the graph's
// configurable-edge ordinals against the reference enumeration: the same
// sequence, a (from, to) -> ordinal -> (from, to) round trip, and a count
// equal to the encoded routing frame's length.
func TestConfigEdgeNumberingMatchesReference(t *testing.T) {
	for name, a := range numberingArchs() {
		t.Run(name, func(t *testing.T) {
			g, err := rrgraph.Build(a)
			if err != nil {
				t.Fatal(err)
			}
			ref := referenceConfigurableEdges(g)
			if len(ref) == 0 {
				t.Fatal("reference enumeration is empty")
			}
			if got := g.NumConfigEdges(); got != len(ref) {
				t.Fatalf("NumConfigEdges %d, reference %d", got, len(ref))
			}
			for i, e := range ref {
				if from, to := g.ConfigEdgeAt(i); from != e[0] || to != e[1] {
					t.Fatalf("ordinal %d is %d->%d, reference %d->%d", i, from, to, e[0], e[1])
				}
				if ord, ok := g.ConfigEdge(e[0], e[1]); !ok || ord != i {
					t.Fatalf("ConfigEdge(%d, %d) = %d, %v; want %d", e[0], e[1], ord, ok, i)
				}
			}

			// Every bit set: the encoded frame carries one bit per reference
			// edge after the CLB frames, and decodes back to all ones.
			bs := newBitstream(a, g, "numbering")
			for i := range bs.Routing {
				bs.Routing[i] = ^uint64(0)
			}
			if n := len(ref) % 64; n != 0 {
				bs.Routing[len(bs.Routing)-1] = 1<<uint(n) - 1
			}
			data, err := Encode(bs)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := DecodeOn(data, g)
			if err != nil {
				t.Fatal(err)
			}
			set := 0
			for _, w := range dec.Routing {
				set += bits.OnesCount64(w)
			}
			if set != len(ref) {
				t.Errorf("decoded routing frame has %d bits set, reference %d edges", set, len(ref))
			}
			total, err := NumConfigBits(a)
			if err != nil {
				t.Fatal(err)
			}
			if frame := total - int(clbFrameBits(a)); frame != len(ref) {
				t.Errorf("routing frame %d bits, reference %d edges", frame, len(ref))
			}
		})
	}
}

// TestConfigEdgeRejectsHardWiredEdges checks that edges without a
// configuration bit have no ordinal, and that a wire-wire switch has the
// same ordinal in both directions.
func TestConfigEdgeRejectsHardWiredEdges(t *testing.T) {
	a := arch.Paper()
	a.Rows, a.Cols = 3, 3
	g, err := rrgraph.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	src := g.SourceAt(1, 1)
	op := int(g.Edges(src)[0])
	if _, ok := g.ConfigEdge(src, op); ok {
		t.Errorf("Source->OPin %d->%d has an ordinal", src, op)
	}
	ip := g.IPins(1, 1)[0]
	if _, ok := g.ConfigEdge(ip, g.SinkAt(1, 1)); ok {
		t.Errorf("IPin->Sink has an ordinal")
	}
	checked := 0
	for from, ft := range g.Type {
		if !ft.IsWire() {
			continue
		}
		for _, e := range g.Edges(from) {
			if to := int(e); to > from || !g.Type[to].IsWire() {
				continue
			}
			down, ok1 := g.ConfigEdge(from, int(e))
			up, ok2 := g.ConfigEdge(int(e), from)
			if !ok1 || !ok2 || down != up {
				t.Fatalf("switch %d<->%d: ordinals %d,%v and %d,%v", from, e, down, ok1, up, ok2)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatalf("no switch checked on %dx%d", a.Cols, a.Rows)
	}
}
