package fpgaflow

// Bitstream byte pins: SHA-256 digests of the encoded configuration the
// flow produces for every committed example design, under the default
// and min-delay profiles and on a defect-aware run. The determinism suite
// compares runs within one build only; these digests hold the `.bit`
// bytes fixed across changes to the generator and the codec. A digest
// may change only with a deliberate, documented format or QoR change.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"

	"fpgaflow/internal/arch"
	"fpgaflow/internal/bitstream"
	"fpgaflow/internal/core"
	"fpgaflow/internal/fault"
	"fpgaflow/internal/obs"
)

var bitstreamDigests = []struct {
	design  string
	profile Profile
	digest  string
}{
	{"count2", ProfileBalanced, "88ff2ff1f4dd6fb55f72e13e3ffaf6c496729de1cc34796e9c6aafa750b73f2d"},
	{"count2", ProfileMinDelay, "d27db48b6a537638331d4bb2484b2a0f4d1ae0a721123e3d4250dfcd9846c172"},
	{"fulladder", ProfileBalanced, "375b029778d41365362740162430c539eca4bea593dae51ee0fe9f5daf7d1cd8"},
	{"fulladder", ProfileMinDelay, "a00f86efdf8e524c8edc2f9d9d71fe179c734b4afb3513d2a22891966a702278"},
	{"pipe48", ProfileBalanced, "f88235a18697004c238a7511bde27514245acd00777966c6813c9c73cc195d89"},
	{"pipe48", ProfileMinDelay, "fbc631ebeb8b7830ba77882c0d551d08c4d23a02ced29055d45ddcc7fa6b73c8"},
	{"rand64", ProfileBalanced, "40f0a8743b895890278f89c61193e896616b709758077914f5b122587f970023"},
	{"rand64", ProfileMinDelay, "e131ed01d28e8b298056009a6ed900fb9462fa235eafa5b376ed02b35c9b06a0"},
	{"rand128", ProfileBalanced, "afe00e52dd81d1734543b6605da08fc1bacd2b111ac5424eb13105b2906bb622"},
	{"rand128", ProfileMinDelay, "0eb642182da18b533b977829ea31bdc4b5172ca07da798c76e7763442fd3d41a"},
}

// defectDigest pins rand64 routed around the seed-42 defect map
// (2% dead switch points, 1% dead wires on the paper platform).
const defectDigest = "8bf398706de313b0102d6e4e0ee93793df23a954552150003fcbbdb8016853f1"

// defectDeadNodes and defectEdgesRemoved pin what the seed-42 defect map
// masks on the rand64 graph (fault.rr_dead_nodes, fault.rr_edges_removed):
// the overlay must hide exactly these wires and switch edges.
const (
	defectDeadNodes    = 15
	defectEdgesRemoved = 174
)

// escalatedDigest pins pipe48 on the paper platform narrowed to W=8 under
// the default retry policy: the fixed-width route fails, and the escalated
// attempt's minimum-width search routes the placement it inherits.
const escalatedDigest = "3b77cba200ac611c08cdaf4566f853c143921d77f9add6aeaa6a9ef262629310"

// escalatedHeapPops and escalatedIterations pin the escalated compile's
// router effort (route.heap_pops, route.iterations summed over every
// width it routes): the search's pop sequence is locked, not just the
// bitstream it leads to.
const (
	escalatedHeapPops   = 919717
	escalatedIterations = 94
)

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

func readExample(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile("examples/netlists/" + name + ".blif")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestBitstreamDigests(t *testing.T) {
	for _, c := range bitstreamDigests {
		name := c.design + "/balanced"
		if c.profile != ProfileBalanced {
			name = c.design + "/" + string(c.profile)
		}
		t.Run(name, func(t *testing.T) {
			res, err := Run(readExample(t, c.design), Options{Seed: 1, Profile: c.profile, SkipVerify: true})
			if err != nil {
				t.Fatal(err)
			}
			if got := sha(res.Encoded); got != c.digest {
				t.Errorf("bitstream sha256 %s, pinned %s", got, c.digest)
			}
		})
	}
	t.Run("rand64/defects-seed42", func(t *testing.T) {
		dm, err := fault.Generate(arch.Paper(), 42, fault.Rates{DeadSwitch: 0.02, DeadWire: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.New("defects")
		res, err := Run(readExample(t, "rand64"), Options{Seed: 1, Defects: dm, SkipVerify: true, Obs: tr})
		if err != nil {
			t.Fatal(err)
		}
		if got := sha(res.Encoded); got != defectDigest {
			t.Errorf("bitstream sha256 %s, pinned %s", got, defectDigest)
		}
		c := tr.Counters()
		if c["fault.rr_dead_nodes"] != defectDeadNodes || c["fault.rr_edges_removed"] != defectEdgesRemoved {
			t.Errorf("overlay masked %d dead nodes and %d edges, pinned %d and %d",
				c["fault.rr_dead_nodes"], c["fault.rr_edges_removed"], defectDeadNodes, defectEdgesRemoved)
		}
	})
	t.Run("pipe48/escalated-W8", func(t *testing.T) {
		a := arch.Paper()
		a.Routing.ChannelWidth = 8
		tr := obs.New("escalated")
		res, err := Run(readExample(t, "pipe48"), Options{Seed: 1, Arch: a, AutoSizeGrid: true,
			Retry: core.DefaultRetryPolicy(), SkipVerify: true, Obs: tr})
		if err != nil {
			t.Fatal(err)
		}
		if res.Metrics.ChannelWidth <= 8 {
			t.Fatalf("routed at W=%d; pipe48 must escalate from W=8", res.Metrics.ChannelWidth)
		}
		if got := sha(res.Encoded); got != escalatedDigest {
			t.Errorf("bitstream sha256 %s, pinned %s", got, escalatedDigest)
		}
		c := tr.Counters()
		if c["route.heap_pops"] != escalatedHeapPops || c["route.iterations"] != escalatedIterations {
			t.Errorf("route.heap_pops %d, route.iterations %d; pinned %d and %d",
				c["route.heap_pops"], c["route.iterations"], escalatedHeapPops, escalatedIterations)
		}
	})
}

// TestCommittedBitstreamRoundTrip decodes the committed example bitstream
// and re-encodes it: the bytes must come back unchanged.
func TestCommittedBitstreamRoundTrip(t *testing.T) {
	data, err := os.ReadFile("examples/netlists/fulladder.bit")
	if err != nil {
		t.Fatal(err)
	}
	bs, err := bitstream.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	out, err := bitstream.Encode(bs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatalf("Encode(Decode(fulladder.bit)) is %d bytes (sha256 %s), committed file %d bytes (sha256 %s)",
			len(out), sha(out), len(data), sha(data))
	}
}
