package netlist

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// IsBLIF sniffs whether text is a BLIF netlist: its first non-blank,
// non-comment line is a .model or .inputs directive. Committed netlists
// open with '#' comments, so a prefix test on the raw text would send them
// to the VHDL parser.
func IsBLIF(text string) bool {
	for text != "" {
		var line string
		line, text, _ = strings.Cut(text, "\n")
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		return strings.HasPrefix(line, ".model") || strings.HasPrefix(line, ".inputs")
	}
	return false
}

// readBLIF parses the first model of a BLIF stream into a Netlist.
// The supported subset covers what the flow produces and consumes:
// .model, .inputs, .outputs, .names, .latch, .end, comments and
// backslash line continuation. Latches accept the optional
// "re <clock>" trigger/clock pair of full BLIF.
func readBLIF(r io.Reader) (*Netlist, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)

	var lines []string
	var pending strings.Builder
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		if strings.HasSuffix(line, "\\") {
			pending.WriteString(strings.TrimSuffix(line, "\\"))
			pending.WriteByte(' ')
			continue
		}
		pending.WriteString(line)
		full := strings.TrimSpace(pending.String())
		pending.Reset()
		if full != "" {
			lines = append(lines, full)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("blif: read: %w", err)
	}

	nl := New("top")
	// pendingNodes defers construction until all drivers are known, since
	// BLIF permits forward references.
	type rawNames struct {
		signals []string // fanins then output
		cover   Cover
	}
	type rawLatch struct {
		d, q, clock string
		init        byte
	}
	var names []rawNames
	var latches []rawLatch
	type declOrder struct {
		isLatch bool
		idx     int
	}
	var order []declOrder
	seenModel := false

	i := 0
	for i < len(lines) {
		fields := strings.Fields(lines[i])
		i++
		switch fields[0] {
		case ".model":
			if seenModel {
				return nil, fmt.Errorf("blif: multiple models are not supported")
			}
			seenModel = true
			if len(fields) > 1 {
				nl.Name = fields[1]
			}
		case ".inputs":
			for _, in := range fields[1:] {
				if _, err := nl.AddInput(in); err != nil {
					return nil, fmt.Errorf("blif: %w", err)
				}
			}
		case ".outputs":
			for _, out := range fields[1:] {
				nl.MarkOutput(out)
			}
		case ".names":
			rn := rawNames{signals: fields[1:], cover: Cover{Value: LitOne}}
			if len(rn.signals) == 0 {
				return nil, fmt.Errorf("blif: .names with no output")
			}
			width := len(rn.signals) - 1
			valueSet := false
			for i < len(lines) && !strings.HasPrefix(lines[i], ".") {
				row := strings.Fields(lines[i])
				i++
				var cubeStr, valStr string
				switch len(row) {
				case 1:
					if width != 0 {
						return nil, fmt.Errorf("blif: node %s: cube row %q lacks output value", rn.signals[width], row[0])
					}
					cubeStr, valStr = "", row[0]
				case 2:
					cubeStr, valStr = row[0], row[1]
				default:
					return nil, fmt.Errorf("blif: node %s: malformed cube row %q", rn.signals[width], strings.Join(row, " "))
				}
				if len(cubeStr) != width {
					return nil, fmt.Errorf("blif: node %s: cube %q width %d != %d fanins",
						rn.signals[width], cubeStr, len(cubeStr), width)
				}
				cube := make(Cube, width)
				for j := 0; j < width; j++ {
					switch cubeStr[j] {
					case '0':
						cube[j] = LitZero
					case '1':
						cube[j] = LitOne
					case '-':
						cube[j] = LitDC
					default:
						return nil, fmt.Errorf("blif: node %s: bad literal %q", rn.signals[width], cubeStr[j])
					}
				}
				var v LitValue
				switch valStr {
				case "1":
					v = LitOne
				case "0":
					v = LitZero
				default:
					return nil, fmt.Errorf("blif: node %s: bad output value %q", rn.signals[width], valStr)
				}
				if valueSet && v != rn.cover.Value {
					return nil, fmt.Errorf("blif: node %s: mixed on-set and off-set rows", rn.signals[width])
				}
				rn.cover.Value = v
				valueSet = true
				rn.cover.Cubes = append(rn.cover.Cubes, cube)
			}
			order = append(order, declOrder{false, len(names)})
			names = append(names, rn)
		case ".latch":
			if len(fields) < 3 {
				return nil, fmt.Errorf("blif: malformed .latch %q", strings.Join(fields, " "))
			}
			rl := rawLatch{d: fields[1], q: fields[2], init: '3'}
			rest := fields[3:]
			if len(rest) >= 2 && (rest[0] == "re" || rest[0] == "fe" || rest[0] == "ah" || rest[0] == "al" || rest[0] == "as") {
				rl.clock = rest[1]
				rest = rest[2:]
			}
			if len(rest) == 1 {
				switch rest[0] {
				case "0", "1", "2", "3":
					rl.init = rest[0][0]
				default:
					return nil, fmt.Errorf("blif: latch %s: bad init %q", rl.q, rest[0])
				}
			} else if len(rest) > 1 {
				return nil, fmt.Errorf("blif: latch %s: trailing tokens %v", rl.q, rest)
			}
			order = append(order, declOrder{true, len(latches)})
			latches = append(latches, rl)
		case ".end":
			i = len(lines)
		case ".clock":
			// Global clock declaration; the IR keeps clocks by name on latches.
		default:
			return nil, fmt.Errorf("blif: unsupported construct %q", fields[0])
		}
	}

	// First pass: create placeholder entries so forward references resolve.
	// BLIF semantics: any referenced signal without a driver and not a
	// primary input is an error.
	resolve := func(name string) (*Node, error) {
		if n := nl.Node(name); n != nil {
			return n, nil
		}
		return nil, fmt.Errorf("blif: signal %q has no driver", name)
	}
	// Create all nodes as placeholders in declaration order (preserving the
	// author's ordering keeps write-parse-write canonical); fanins are
	// resolved afterwards since BLIF permits forward references.
	for _, it := range order {
		if it.isLatch {
			rl := latches[it.idx]
			if _, err := nl.add(&Node{Name: rl.q, Kind: KindLatch, Init: rl.init, Clock: rl.clock}); err != nil {
				return nil, fmt.Errorf("blif: %w", err)
			}
		} else {
			rn := names[it.idx]
			out := rn.signals[len(rn.signals)-1]
			if _, err := nl.add(&Node{Name: out, Kind: KindLogic, Cover: rn.cover}); err != nil {
				return nil, fmt.Errorf("blif: %w", err)
			}
		}
	}
	for _, rl := range latches {
		d, err := resolve(rl.d)
		if err != nil {
			return nil, err
		}
		nl.Node(rl.q).Fanin = []*Node{d}
	}
	for _, rn := range names {
		out := rn.signals[len(rn.signals)-1]
		node := nl.Node(out)
		for _, in := range rn.signals[:len(rn.signals)-1] {
			f, err := resolve(in)
			if err != nil {
				return nil, err
			}
			node.Fanin = append(node.Fanin, f)
		}
	}
	if err := nl.Check(); err != nil {
		return nil, fmt.Errorf("blif: %w", err)
	}
	return nl, nil
}

// ParseBLIF parses BLIF text.
func ParseBLIF(text string) (*Netlist, error) {
	return readBLIF(strings.NewReader(text))
}

// writeBLIF emits the netlist as BLIF.
func writeBLIF(w io.Writer, nl *Netlist) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, ".model %s\n", nl.Name)
	fmt.Fprint(bw, ".inputs")
	for _, in := range nl.Inputs {
		fmt.Fprintf(bw, " %s", in.Name)
	}
	fmt.Fprintln(bw)
	fmt.Fprint(bw, ".outputs")
	for _, out := range nl.Outputs {
		fmt.Fprintf(bw, " %s", out)
	}
	fmt.Fprintln(bw)
	for _, n := range nl.Nodes() {
		switch n.Kind {
		case KindLatch:
			clock := ""
			if n.Clock != "" {
				clock = " re " + n.Clock
			}
			fmt.Fprintf(bw, ".latch %s %s%s %c\n", n.Fanin[0].Name, n.Name, clock, n.Init)
		case KindLogic:
			fmt.Fprint(bw, ".names")
			for _, f := range n.Fanin {
				fmt.Fprintf(bw, " %s", f.Name)
			}
			fmt.Fprintf(bw, " %s\n", n.Name)
			val := byte('1')
			if !n.Cover.OnSet() {
				val = '0'
			}
			for _, cube := range n.Cover.Cubes {
				if len(cube) == 0 {
					fmt.Fprintf(bw, "%c\n", val)
				} else {
					fmt.Fprintf(bw, "%s %c\n", cube.String(), val)
				}
			}
		}
	}
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}

// FormatBLIF renders the netlist as a BLIF string.
func FormatBLIF(nl *Netlist) string {
	var sb strings.Builder
	_ = writeBLIF(&sb, nl)
	return sb.String()
}
