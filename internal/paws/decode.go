package paws

import (
	"bytes"
	"strconv"
	"time"
	"unicode/utf8"
)

// decodeSpectrumFast decodes a getSpectrum JSON-RPC success body in
// the exact byte layout Server.handleGetSpectrum and writeRPC emit:
// fixed key order, no whitespace, strings without escapes or control
// bytes, and nothing but whitespace after the closing brace. It
// reports ok=false on any deviation, and the caller then falls back to
// the encoding/json two-pass decode, so error classes and non-canonical
// or third-party bodies keep the stdlib's behaviour.
//
// When it accepts a body, the result equals what the two-pass decode
// yields for that body (FuzzParse and TestFastPathAcceptsServerOutput
// hold the two to reflect.DeepEqual). The server's writer and this
// reader change together.
func decodeSpectrumFast(body []byte) (AvailSpectrumResp, bool) {
	c := specCursor{b: body}
	var r AvailSpectrumResp
	c.lit(`{"jsonrpc":"2.0","result":{"timestamp":`)
	r.Timestamp = c.time()
	c.lit(`,"rulesetInfo":{"authority":`)
	r.RulesetInfo.Authority = c.str()
	c.lit(`,"rulesetId":`)
	r.RulesetInfo.RulesetID = c.str()
	c.lit(`,"maxLocationChange":`)
	r.RulesetInfo.MaxLocationChangeM = c.float()
	c.lit(`,"maxPollingSecs":`)
	r.RulesetInfo.MaxPollingSecs = int(c.integer(strconv.IntSize))
	c.lit(`},"spectrumSchedules":[`)
	r.Schedules = make([]SpectrumSchedule, 0, 1)
	for !c.bad && !c.next(']') {
		if len(r.Schedules) > 0 {
			c.lit(`,`)
		}
		r.Schedules = append(r.Schedules, c.schedule())
	}
	c.lit(`,"needsSpectrumReport":`)
	r.NeedsSpectrumReport = c.bool()
	c.lit(`},"id":`)
	c.integer(64) // unused, but the stdlib rejects a non-int64 id
	c.lit(`}`)
	for ; !c.bad && c.i < len(c.b); c.i++ {
		if !isSpace(c.b[c.i]) {
			c.bad = true
		}
	}
	if c.bad {
		return AvailSpectrumResp{}, false
	}
	return r, true
}

var startHzKey = []byte(`{"startHz":`)

// specCursor walks a response body left to right. The first mismatch
// sets bad; every later read is then a no-op returning a zero value,
// so decodeSpectrumFast checks bad only once, at the end.
type specCursor struct {
	b   []byte
	i   int
	bad bool
}

func (c *specCursor) schedule() SpectrumSchedule {
	var s SpectrumSchedule
	c.lit(`{"startTime":`)
	s.StartTime = c.time()
	c.lit(`,"stopTime":`)
	s.StopTime = c.time()
	c.lit(`,"spectra":[`)
	// The server writes one entry per available TV channel (at most
	// 40 in the EU plan); counting the entry keys first sizes the
	// slice in one allocation. Strings cannot hide a key: the quote
	// would have to be escaped, which sends the body to the fallback.
	s.Spectra = make([]FrequencyRange, 0, bytes.Count(c.b[c.i:], startHzKey))
	for !c.bad && !c.next(']') {
		if len(s.Spectra) > 0 {
			c.lit(`,`)
		}
		var fr FrequencyRange
		c.lit(`{"startHz":`)
		fr.StartHz = c.float()
		c.lit(`,"stopHz":`)
		fr.StopHz = c.float()
		c.lit(`,"maxEirpDbm":`)
		fr.MaxEIRPdBm = c.float()
		c.lit(`,"channel":`)
		fr.Channel = int(c.integer(strconv.IntSize))
		c.lit(`}`)
		s.Spectra = append(s.Spectra, fr)
	}
	c.lit(`}`)
	return s
}

// lit consumes the exact bytes s.
func (c *specCursor) lit(s string) {
	if c.bad || len(c.b)-c.i < len(s) || string(c.b[c.i:c.i+len(s)]) != s {
		c.bad = true
		return
	}
	c.i += len(s)
}

// next consumes b if it is the next byte and reports whether it was.
func (c *specCursor) next(b byte) bool {
	if c.i < len(c.b) && c.b[c.i] == b {
		c.i++
		return true
	}
	return false
}

// quoted returns the next string token, quotes included. It accepts
// only strings the stdlib decoder returns verbatim: no escapes, no
// control bytes, valid UTF-8.
func (c *specCursor) quoted() []byte {
	if c.bad || c.i >= len(c.b) || c.b[c.i] != '"' {
		c.bad = true
		return nil
	}
	for j := c.i + 1; j < len(c.b); j++ {
		b := c.b[j]
		if b == '\\' || b < 0x20 {
			break
		}
		if b == '"' {
			if tok := c.b[c.i : j+1]; utf8.Valid(tok) {
				c.i = j + 1
				return tok
			}
			break
		}
	}
	c.bad = true
	return nil
}

func (c *specCursor) str() string {
	tok := c.quoted()
	if c.bad {
		return ""
	}
	return string(tok[1 : len(tok)-1])
}

// time parses a timestamp through time.Time.UnmarshalJSON, the method
// encoding/json itself calls with the same quoted bytes.
func (c *specCursor) time() time.Time {
	var t time.Time
	tok := c.quoted()
	if !c.bad && t.UnmarshalJSON(tok) != nil {
		c.bad = true
	}
	return t
}

func (c *specCursor) bool() bool {
	switch {
	case c.bad:
	case len(c.b)-c.i >= 4 && string(c.b[c.i:c.i+4]) == "true":
		c.i += 4
		return true
	case len(c.b)-c.i >= 5 && string(c.b[c.i:c.i+5]) == "false":
		c.i += 5
		return false
	default:
		c.bad = true
	}
	return false
}

// number returns the next token if it matches the JSON number grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, the set the stdlib
// scanner admits before handing the text to strconv.
func (c *specCursor) number() []byte {
	if c.bad {
		return nil
	}
	b, i := c.b, c.i
	digits := func() bool {
		start := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		c.bad = true
		return nil
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			c.bad = true
			return nil
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			c.bad = true
			return nil
		}
	}
	tok := b[c.i:i]
	c.i = i
	return tok
}

// float and integer parse exactly as encoding/json does for float64 and
// int fields; a value it would reject (1e400, 36.0 into an int) sends
// the body to the fallback.
func (c *specCursor) float() float64 {
	tok := c.number()
	if c.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		c.bad = true
	}
	return f
}

// integer parses into a signed integer of the given bit size.
func (c *specCursor) integer(bitSize int) int64 {
	tok := c.number()
	if c.bad {
		return 0
	}
	n, err := strconv.ParseInt(string(tok), 10, bitSize)
	if err != nil {
		c.bad = true
	}
	return n
}

func isSpace(b byte) bool {
	return b == ' ' || b == '\t' || b == '\r' || b == '\n'
}
