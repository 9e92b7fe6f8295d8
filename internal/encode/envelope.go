package encode

// envelopeFields are the keys of an upload envelope.
var envelopeFields = []string{"name", "doc"}

// Envelope scans an upload request, {"name": "...", "doc": {...}}, in place
// and returns the name and the doc value's bytes, a sub-slice of body. It
// accepts exactly what json.Decoder.Decode with DisallowUnknownFields
// accepts into a struct of a name string and a json.RawMessage doc,
// followed by nothing but whitespace, except that a repeated key is an
// error, as in Decode:
//
//   - name is a string or null; doc is any JSON value, checked for syntax
//     only (Decode parses it), and its bytes are returned as they stand.
//   - Keys match by exact name, else by bytes.EqualFold; any other key is
//     unknown field "k", and a second key for one field is duplicate key
//     "k".
//   - More than 10,000 nested arrays and objects, counting the envelope,
//     is an error.
//   - Anything but whitespace after the envelope is trailing data.
func Envelope(body []byte) (name string, doc []byte, err error) {
	d := &decoder{data: body}
	d.ws()
	err = d.object("request", envelopeFields, func(f int) error {
		if f == 1 {
			var err error
			doc, err = d.skip()
			return err
		}
		s, err := d.str()
		name = string(s)
		return err
	})
	if err != nil {
		return "", nil, err
	}
	if d.ws(); d.pos < len(d.data) {
		return "", nil, d.errorf("trailing data after the request object")
	}
	return name, doc, nil
}
