package gui

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"fpgaflow/internal/circuits"
)

// client wraps the test server with a no-redirect policy so we can follow
// the POST/redirect/GET cycle explicitly.
func newClient(t *testing.T) (*httptest.Server, *http.Client) {
	t.Helper()
	srv := httptest.NewServer(NewServer().Handler())
	t.Cleanup(srv.Close)
	c := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	return srv, c
}

func postForm(t *testing.T, c *http.Client, url string, form map[string]string) {
	t.Helper()
	vals := make(map[string][]string, len(form))
	for k, v := range form {
		vals[k] = []string{v}
	}
	resp, err := c.PostForm(url, vals)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusSeeOther {
		t.Fatalf("POST %s: status %d", url, resp.StatusCode)
	}
}

func getBody(t *testing.T, c *http.Client, url string) string {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestHomeShowsSixStages(t *testing.T) {
	srv, c := newClient(t)
	body := getBody(t, c, srv.URL+"/")
	for _, stage := range []string{"File Upload", "Synthesis", "Format Translation",
		"Power Estimation", "Placement and Routing", "FPGA Program"} {
		if !strings.Contains(body, stage) {
			t.Errorf("home page missing stage %q", stage)
		}
	}
}

func TestFullGUIWorkflow(t *testing.T) {
	srv, c := newClient(t)
	b := circuits.RippleAdder(4)
	postForm(t, c, srv.URL+"/upload", map[string]string{"source": b.VHDL, "name": b.Name})

	body := getBody(t, c, srv.URL+"/")
	if !strings.Contains(body, "design loaded") {
		t.Fatal("upload not reflected")
	}

	postForm(t, c, srv.URL+"/synthesize", nil)
	body = getBody(t, c, srv.URL+"/")
	if !strings.Contains(body, "DIVINER") || strings.Contains(body, "ERROR") {
		t.Fatalf("synthesis log wrong:\n%s", tail(body))
	}

	postForm(t, c, srv.URL+"/translate", nil)
	body = getBody(t, c, srv.URL+"/")
	if !strings.Contains(body, "E2FMT") {
		t.Fatal("translation log missing")
	}

	postForm(t, c, srv.URL+"/pnr", map[string]string{"seed": "3"})
	body = getBody(t, c, srv.URL+"/")
	if !strings.Contains(body, "critical path") {
		t.Fatalf("place-and-route metrics missing:\n%s", tail(body))
	}
	if !strings.Contains(body, "LUTs") {
		t.Fatal("metrics missing LUT count")
	}

	postForm(t, c, srv.URL+"/program", nil)
	body = getBody(t, c, srv.URL+"/")
	if !strings.Contains(body, "bitstream ready") {
		t.Fatalf("bitstream not offered:\n%s", tail(body))
	}
	if !strings.Contains(body, "verified equivalent") {
		t.Error("verification badge missing")
	}

	// Download the bitstream.
	resp, err := c.Get(srv.URL + "/bitstream.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || len(data) < 16 {
		t.Fatalf("bitstream download: status %d, %d bytes", resp.StatusCode, len(data))
	}
	if string(data[:4]) != "DAGR" {
		t.Error("downloaded bitstream has wrong magic")
	}
}

func TestGUIRejectsRunWithoutUpload(t *testing.T) {
	srv, c := newClient(t)
	postForm(t, c, srv.URL+"/pnr", nil)
	body := getBody(t, c, srv.URL+"/")
	if !strings.Contains(body, "ERROR") {
		t.Fatal("missing error for empty design")
	}
}

func TestGUISynthesisErrorsSurface(t *testing.T) {
	srv, c := newClient(t)
	postForm(t, c, srv.URL+"/upload", map[string]string{"source": "entity broken is port (", "name": "x"})
	postForm(t, c, srv.URL+"/synthesize", nil)
	body := getBody(t, c, srv.URL+"/")
	if !strings.Contains(body, "ERROR") {
		t.Fatal("syntax error not surfaced")
	}
}

func TestGUIAcceptsBLIF(t *testing.T) {
	srv, c := newClient(t)
	blif := ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n"
	postForm(t, c, srv.URL+"/upload", map[string]string{"source": blif, "name": "m"})
	postForm(t, c, srv.URL+"/pnr", map[string]string{"seed": "1"})
	body := getBody(t, c, srv.URL+"/")
	if !strings.Contains(body, "critical path") {
		t.Fatalf("BLIF flow failed:\n%s", tail(body))
	}
}

func TestBitstreamNotFoundBeforeRun(t *testing.T) {
	srv, c := newClient(t)
	resp, err := c.Get(srv.URL + "/bitstream.bin")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func tail(s string) string {
	if i := strings.Index(s, "Tool log"); i >= 0 {
		return s[i:]
	}
	return s
}

func TestLayoutEndpoint(t *testing.T) {
	srv, c := newClient(t)
	// Before a run: 404.
	resp, err := c.Get(srv.URL + "/layout")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pre-run status %d", resp.StatusCode)
	}
	b := circuits.RippleAdder(4)
	postForm(t, c, srv.URL+"/upload", map[string]string{"source": b.VHDL, "name": b.Name})
	postForm(t, c, srv.URL+"/pnr", map[string]string{"seed": "2"})
	body := getBody(t, c, srv.URL+"/layout")
	if !strings.Contains(body, "floorplan") || !strings.Contains(body, "C") {
		t.Fatalf("floorplan missing content:\n%s", body)
	}
	// Every input port must appear in the block legend.
	for _, port := range []string{"cin", "cout"} {
		if !strings.Contains(body, port) {
			t.Errorf("legend missing %s", port)
		}
	}
}

func TestDocsEndpoint(t *testing.T) {
	srv, c := newClient(t)
	body := getBody(t, c, srv.URL+"/docs")
	for _, tool := range []string{"DIVINER", "DRUID", "E2FMT", "T-VPack", "DUTYS", "DAGGER", "PowerModel"} {
		if !strings.Contains(body, tool) {
			t.Errorf("docs missing %s", tool)
		}
	}
	home := getBody(t, c, srv.URL+"/")
	if !strings.Contains(home, "/docs") {
		t.Error("home does not link the documentation")
	}
}

// TestSourceKindCommentedBLIF: committed example netlists open with '#'
// comment lines and must still be classified as BLIF.
func TestSourceKindCommentedBLIF(t *testing.T) {
	src, err := os.ReadFile("../../examples/netlists/count2.blif")
	if err != nil {
		t.Fatal(err)
	}
	if got := sourceKind(string(src)); got != "BLIF" {
		t.Errorf("sourceKind(count2.blif) = %q, want BLIF", got)
	}
}
