package encode

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"

	"kpa/internal/rat"
	"kpa/internal/system"
)

// maxDepth is encoding/json's nesting bound: more than this many nested
// arrays and objects is a syntax error. Tree building, run enumeration,
// canon.Hash and Encode recurse once per tree level, so the bound is what
// keeps an upload from exhausting the stack.
const maxDepth = 10000

// The field names of each object kind. A name's index is the field number
// key returns and the bit it marks seen.
var (
	topFields  = []string{"agents", "trees", "props"}
	treeFields = []string{"adversary", "root"}
	nodeFields = []string{"env", "locals", "children"}
	edgeFields = []string{"prob", "node"}
)

// decoder scans one document in place. A tree's nodes are collected in
// preorder (a node is numbered when its object opens, or when its edge
// closes without one) and replayed through system.TreeBuilder once the
// tree's object closes, so keys may come in any order and node IDs are the
// preorder IDs the nested document implies.
type decoder struct {
	data  []byte
	pos   int
	depth int

	nodes  []nodeRec
	locals []system.LocalState // every node's locals, back to back
	probs  map[string]rat.Rat  // each distinct probability parsed once
}

// nodeRec is one node of the tree being scanned.
type nodeRec struct {
	env    string
	lo, hi int // locals[lo:hi]
	parent int
	child  int    // index among the parent's children
	prob   []byte // probability text of the edge from the parent
}

// Decode parses a JSON document and builds the system and its propositions.
func Decode(data []byte) (*system.System, map[string]system.Fact, error) {
	d := &decoder{data: data, probs: make(map[string]rat.Rat)}
	agents, trees, props, err := d.document()
	if err != nil {
		return nil, nil, err
	}
	if len(trees) == 0 {
		return nil, nil, fmt.Errorf("encode: no trees")
	}
	sys, err := system.New(agents, trees...)
	if err != nil {
		return nil, nil, fmt.Errorf("encode: %w", err)
	}
	facts := make(map[string]system.Fact, len(props))
	for name, pd := range props {
		fact, err := pd.Fact(name, agents)
		if err != nil {
			return nil, nil, err
		}
		facts[name] = fact
	}
	return sys, facts, nil
}

// document scans the top-level object. Bytes after its closing brace are
// ignored, as json.Decoder.Decode ignores them.
func (d *decoder) document() (agents int, trees []*system.Tree, props map[string]PropDoc, err error) {
	d.ws()
	err = d.object("document", topFields, func(f int) error {
		switch f {
		case 0:
			return d.agents(&agents)
		case 1:
			return d.array("trees", func(i int) error {
				t, err := d.tree(i)
				trees = append(trees, t)
				return err
			})
		}
		// Propositions are a few small objects: decode them with
		// encoding/json over the rest of the input and resume where the
		// value ends.
		dec := json.NewDecoder(bytes.NewReader(d.data[d.pos:]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&props); err != nil {
			return fmt.Errorf("encode: parse: props: %w", err)
		}
		d.pos += int(dec.InputOffset())
		return nil
	})
	return agents, trees, props, err
}

// agents decodes the agent count. Its literal goes through json.Unmarshal,
// so number syntax and the int range are encoding/json's.
func (d *decoder) agents(dst *int) error {
	start := d.pos
	switch {
	case d.pos >= len(d.data):
		return d.eof()
	case d.data[d.pos] == '{' || d.data[d.pos] == '[':
		return d.errorf("agents wants a number, found %s", d.found())
	case d.data[d.pos] == '"':
		if _, err := d.str(); err != nil {
			return err
		}
	default:
		for d.pos < len(d.data) && !isDelim(d.data[d.pos]) {
			d.pos++
		}
	}
	if err := json.Unmarshal(d.data[start:d.pos], dst); err != nil {
		return fmt.Errorf("encode: parse: offset %d: agents: %w", start, err)
	}
	return nil
}

// tree decodes one element of the trees array and builds the tree.
func (d *decoder) tree(ti int) (*system.Tree, error) {
	d.nodes = d.nodes[:0]
	var adversary string
	err := d.object("tree", treeFields, func(f int) error {
		if f == 1 {
			return d.node(-1, 0, nil)
		}
		s, err := d.str()
		adversary = string(s)
		return err
	})
	if err != nil {
		return nil, err
	}
	if len(d.nodes) == 0 {
		d.nodes = append(d.nodes, nodeRec{parent: -1})
	}
	if adversary == "" {
		return nil, fmt.Errorf("encode: tree %d has no adversary name", ti)
	}
	tb := system.NewTree(adversary, d.state(0))
	tb.Grow(len(d.nodes) - 1)
	for i := 1; i < len(d.nodes); i++ {
		n := &d.nodes[i]
		p, ok := d.probs[string(n.prob)]
		if !ok {
			if p, err = rat.Parse(string(n.prob)); err != nil {
				return nil, fmt.Errorf("encode: tree %q: child %d: bad probability %q: %v",
					adversary, n.child, n.prob, err)
			}
			d.probs[string(n.prob)] = p
		}
		tb.Child(system.NodeID(n.parent), p, d.state(i))
	}
	t, err := tb.Build()
	if err != nil {
		return nil, fmt.Errorf("encode: tree %q: %w", adversary, err)
	}
	return t, nil
}

func (d *decoder) state(i int) system.GlobalState {
	n := &d.nodes[i]
	return system.GlobalState{Env: n.env, Locals: d.locals[n.lo:n.hi:n.hi]}
}

// node decodes a node object (or null) reached from parent over an edge
// with the given probability text, numbering it in preorder.
func (d *decoder) node(parent, child int, prob []byte) error {
	id := len(d.nodes)
	d.nodes = append(grow(d.nodes), nodeRec{parent: parent, child: child, prob: prob})
	return d.object("node", nodeFields, func(f int) error {
		switch f {
		case 0:
			s, err := d.str()
			d.nodes[id].env = string(s)
			return err
		case 1:
			lo := len(d.locals)
			err := d.array("locals", func(int) error {
				s, err := d.str()
				d.locals = append(grow(d.locals), system.LocalState(s))
				return err
			})
			d.nodes[id].lo, d.nodes[id].hi = lo, len(d.locals)
			return err
		}
		return d.array("children", func(ci int) error { return d.edge(id, ci) })
	})
}

// edge decodes one element of a children array. The child's preorder
// number is taken when its node object opens, so a "prob" key after
// "node" is patched into the child's record once seen, and an edge with no
// node gets a zero-valued child when it closes.
func (d *decoder) edge(parent, ci int) error {
	child := -1
	var prob []byte
	err := d.object("edge", edgeFields, func(f int) error {
		if f == 1 {
			child = len(d.nodes)
			return d.node(parent, ci, prob)
		}
		var err error
		prob, err = d.str()
		if child >= 0 {
			d.nodes[child].prob = prob
		}
		return err
	})
	if err == nil && child < 0 {
		d.nodes = append(grow(d.nodes), nodeRec{parent: parent, child: ci, prob: prob})
	}
	return err
}

// grow doubles a full table before an append. Past 256 entries append
// alone grows a slice about a quarter at a time, which copies each record
// about four times on average; doubling copies it about once and never
// holds more than twice what the scan has already parsed.
func grow[T any](s []T) []T {
	if len(s) == cap(s) {
		return slices.Grow(s, len(s))
	}
	return s
}

// object decodes an object, or null, which leaves the destination at its
// zero value. For each key it calls field with the index of the field of
// names the key selects, with the scan at the key's value.
func (d *decoder) object(what string, names []string, field func(f int) error) error {
	isNull, err := d.open('{', what)
	if err != nil || isNull {
		return err
	}
	var seen uint8
	for first := true; ; first = false {
		more, err := d.more('}', first)
		if err != nil || !more {
			return err
		}
		f, err := d.key(names, &seen)
		if err != nil {
			return err
		}
		if err := field(f); err != nil {
			return err
		}
	}
}

// array decodes an array, or null, calling elem with each element's index
// and the scan at the element.
func (d *decoder) array(what string, elem func(i int) error) error {
	isNull, err := d.open('[', what)
	if err != nil || isNull {
		return err
	}
	for i := 0; ; i++ {
		more, err := d.more(']', i == 0)
		if err != nil || !more {
			return err
		}
		if err := elem(i); err != nil {
			return err
		}
	}
}

// open consumes the delimiter c that opens an object or array, or the
// literal null, which leaves the destination at its zero value.
func (d *decoder) open(c byte, what string) (isNull bool, err error) {
	if d.pos >= len(d.data) {
		return false, d.eof()
	}
	switch d.data[d.pos] {
	case c:
		d.pos++
		if d.depth++; d.depth > maxDepth {
			return false, d.errorf("exceeded max depth")
		}
		return false, nil
	case 'n':
		return true, d.null()
	}
	kind := "an object"
	if c == '[' {
		kind = "an array"
	}
	return false, d.errorf("%s wants %s, found %s", what, kind, d.found())
}

// more steps to the next member of the object or array being scanned: it
// consumes the ',' before every member but the first, or the closing
// delimiter, and reports whether a member follows.
func (d *decoder) more(close byte, first bool) (bool, error) {
	d.ws()
	if d.pos >= len(d.data) {
		return false, d.eof()
	}
	switch c := d.data[d.pos]; {
	case c == close:
		d.pos++
		d.depth--
		return false, nil
	case first:
		return true, nil
	case c == ',':
		d.pos++
		d.ws()
		return true, nil
	}
	return false, d.errorf("invalid character %s after %s element", d.found(), kindOf(close))
}

// key reads an object key and its ':' and returns the index of the field
// of names it selects: the exact name, else the first name equal to it
// under bytes.EqualFold, as encoding/json selects struct fields. A key
// naming no field, or a field an earlier key of the object selected, is
// an error.
func (d *decoder) key(names []string, seen *uint8) (int, error) {
	if d.pos >= len(d.data) {
		return 0, d.eof()
	}
	if d.data[d.pos] != '"' {
		return 0, d.errorf("invalid character %s looking for beginning of object key string", d.found())
	}
	at := d.pos
	k, err := d.str()
	if err != nil {
		return 0, err
	}
	f := -1
	for i, n := range names {
		if string(k) == n {
			f = i
			break
		}
	}
	for i := 0; f < 0 && i < len(names); i++ {
		if bytes.EqualFold(k, []byte(names[i])) {
			f = i
		}
	}
	switch {
	case f < 0:
		return 0, fmt.Errorf("encode: parse: offset %d: unknown field %q", at, k)
	case *seen&(1<<f) != 0:
		return 0, fmt.Errorf("encode: parse: offset %d: duplicate key %q", at, k)
	}
	*seen |= 1 << f
	return f, d.colon()
}

// colon consumes the ':' after an object key and the whitespace around it.
func (d *decoder) colon() error {
	d.ws()
	if d.pos >= len(d.data) {
		return d.eof()
	}
	if d.data[d.pos] != ':' {
		return d.errorf("invalid character %s after object key", d.found())
	}
	d.pos++
	d.ws()
	return nil
}

// str reads a string value, or null as the empty string. A literal with
// no escapes, control bytes or bytes ≥ 0x80 is returned in place; any
// other goes through json.Unmarshal, so escapes, U+FFFD replacement and
// control-byte errors are exactly encoding/json's.
func (d *decoder) str() ([]byte, error) {
	if d.pos >= len(d.data) {
		return nil, d.eof()
	}
	switch d.data[d.pos] {
	case '"':
	case 'n':
		return nil, d.null()
	default:
		return nil, d.errorf("want a string, found %s", d.found())
	}
	data, start := d.data, d.pos
	i := start + 1
	for i < len(data) && plainByte[data[i]] {
		i++
	}
	if i < len(data) && data[i] == '"' {
		d.pos = i + 1
		return data[start+1 : i], nil
	}
	for ; i < len(data) && data[i] != '"'; i++ {
		if data[i] == '\\' {
			i++
		}
	}
	if i >= len(data) {
		d.pos = len(data)
		return nil, d.eof()
	}
	d.pos = i + 1
	var s string
	if err := json.Unmarshal(d.data[start:d.pos], &s); err != nil {
		return nil, fmt.Errorf("encode: parse: offset %d: %w", start, err)
	}
	return []byte(s), nil
}

// skip steps over one value without decoding it and returns its bytes,
// checking its syntax and nesting depth as encoding/json does. It walks
// the value in one loop, keeping the closing delimiter of each array and
// object it is inside.
func (d *decoder) skip() ([]byte, error) {
	start := d.pos
	var closers []byte
	for {
		// The scan is at a value.
		if d.pos >= len(d.data) {
			return nil, d.eof()
		}
		switch c := d.data[d.pos]; c {
		case '{', '[':
			d.pos++
			if d.depth++; d.depth > maxDepth {
				return nil, d.errorf("exceeded max depth")
			}
			closers = append(closers, c+2) // '}' is '{'+2, ']' is '['+2
			if d.ws(); d.pos < len(d.data) && d.data[d.pos] == c+2 {
				break // empty: the loop below closes it
			}
			if c == '{' {
				if err := d.skipKey(); err != nil {
					return nil, err
				}
			}
			continue
		case '"':
			if err := d.skipString(); err != nil {
				return nil, err
			}
		default:
			if err := d.skipLiteral(); err != nil {
				return nil, err
			}
		}
		// The scan is after a value: close arrays and objects until one
		// has another member, or the outermost closes.
		for {
			if len(closers) == 0 {
				return d.data[start:d.pos], nil
			}
			closer := closers[len(closers)-1]
			if d.ws(); d.pos >= len(d.data) {
				return nil, d.eof()
			}
			if d.data[d.pos] == closer {
				d.pos++
				d.depth--
				closers = closers[:len(closers)-1]
				continue
			}
			if d.data[d.pos] != ',' {
				return nil, d.errorf("invalid character %s after %s element", d.found(), kindOf(closer))
			}
			d.pos++
			d.ws()
			if closer == '}' {
				if err := d.skipKey(); err != nil {
					return nil, err
				}
			}
			break
		}
	}
}

// skipKey steps over an object key of any name and its ':'.
func (d *decoder) skipKey() error {
	if d.pos >= len(d.data) {
		return d.eof()
	}
	if d.data[d.pos] != '"' {
		return d.errorf("invalid character %s looking for beginning of object key string", d.found())
	}
	if err := d.skipString(); err != nil {
		return err
	}
	return d.colon()
}

// skipString steps over a string literal. One with an escape or a control
// byte goes through str, which checks it as encoding/json does.
func (d *decoder) skipString() error {
	data, i := d.data, d.pos+1
	for i < len(data) && rawByte[data[i]] {
		i++
	}
	if i < len(data) && data[i] == '"' {
		d.pos = i + 1
		return nil
	}
	_, err := d.str()
	return err
}

// skipLiteral steps over a bare literal, which must be one JSON number,
// true, false or null.
func (d *decoder) skipLiteral() error {
	start := d.pos
	for d.pos < len(d.data) && !isDelim(d.data[d.pos]) {
		d.pos++
	}
	if json.Valid(d.data[start:d.pos]) {
		return nil
	}
	if d.pos = start; d.pos == len(d.data) {
		return d.eof()
	}
	return d.errorf("invalid character %s looking for beginning of value", d.found())
}

func (d *decoder) null() error {
	if !bytes.HasPrefix(d.data[d.pos:], []byte("null")) {
		if len(d.data)-d.pos < 4 && bytes.HasPrefix([]byte("null"), d.data[d.pos:]) {
			return d.eof()
		}
		return d.errorf("invalid literal %s", d.found())
	}
	d.pos += 4
	return nil
}

func (d *decoder) ws() {
	data, i := d.data, d.pos
	for i < len(data) && data[i] <= ' ' && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
		i++
	}
	d.pos = i
}

// The bytes a string literal may hold as themselves, any but '"', '\\'
// and the control bytes below 0x20: rawByte has them all, and plainByte
// the ASCII ones, which str returns in place without decoding.
var plainByte, rawByte [256]bool

func init() {
	for c := 0x20; c < 0x100; c++ {
		if c != '"' && c != '\\' {
			rawByte[c] = true
			plainByte[c] = c < 0x80
		}
	}
}

// isDelim reports whether c ends a bare literal (a number, true, false or
// null): whitespace or structural punctuation.
func isDelim(c byte) bool {
	switch c {
	case ' ', '\t', '\n', '\r', ',', ':', '{', '}', '[', ']', '"':
		return true
	}
	return false
}

func kindOf(close byte) string {
	if close == ']' {
		return "array"
	}
	return "object"
}

func (d *decoder) found() string {
	if d.pos >= len(d.data) {
		return "end of input"
	}
	return fmt.Sprintf("%q", d.data[d.pos])
}

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("encode: parse: offset %d: %s", d.pos, fmt.Sprintf(format, args...))
}

func (d *decoder) eof() error {
	return fmt.Errorf("encode: parse: unexpected end of JSON input")
}
