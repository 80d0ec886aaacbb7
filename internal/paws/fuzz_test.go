package paws

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"cellfi/internal/spectrum"
)

// FuzzParse throws arbitrary bytes at the client-side JSON-RPC
// response parser — the surface a chaos injector's malformed-JSON,
// truncation and clock-skew faults hit. It must never panic, and on
// success the decoded result must be structurally sane. It is also a
// differential test of the getSpectrum fast path: whenever that path
// accepts a body, the encoding/json decode must succeed on it too and
// yield a reflect.DeepEqual value.
func FuzzParse(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`{"jsonrpc":"2.0","result":{},"id":1}`,
		`{"jsonrpc":"2.0","error":{"code":-104,"message":"outside coverage"},"id":1}`,
		`{"jsonrpc":"2.0","result":{"spectrumSchedules":[{"startTime":"2017-12-12T09:00:00Z","stopTime":"2017-12-12T21:00:00Z","spectra":[{"startHz":4.74e8,"stopHz":4.82e8,"maxEirpDbm":36,"channel":21}]}]},"id":2}`,
		`{"jsonrpc":"2.0","result":{"spectrumSchedules":[{"stopTime":"2000-01-01T00:00:00Z"}]},"id":3}`,
		`{"jsonrpc":"2.0","result":{"truncated`,
		`{"jsonrpc":"2.0","result":12345,"id":4}`,
		`null`,
		"\xff\xfe",
	}
	// The canonical server body and near misses of it: a space after
	// a colon, escapes, key case and duplicates, out-of-range and
	// fractional numbers, trailing bytes.
	canon := string(canonicalSpectrumBody(f))
	seeds = append(seeds, canon)
	for _, m := range spectrumNearMisses(canon) {
		seeds = append(seeds, m.body)
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if fast, ok := decodeSpectrumFast(body); ok {
			want, err := stdSpectrum(body)
			if err != nil {
				t.Fatalf("fast path accepted a body the stdlib rejects (%v): %q", err, body)
			}
			if !reflect.DeepEqual(fast, want) {
				t.Fatalf("fast path diverges from stdlib on %q:\n got %+v\nwant %+v", body, fast, want)
			}
		}
		var out AvailSpectrumResp
		err := decodeRPCResponse(MethodGetSpectrum, body, &out)
		if err == nil {
			// A successful parse must yield a response whose Channels
			// flattening does not panic either.
			_ = out.Channels()
			return
		}
		switch err.Class {
		case Transient, Fatal, RegulatoryDeny:
		default:
			t.Fatalf("unclassified parse error %v for %q", err, body)
		}
		if err.Error() == "" {
			t.Fatalf("empty error string for %q", body)
		}
	})
}

// FuzzServerRobustness throws arbitrary bodies at the PAWS endpoint:
// the server must never panic and must always answer with either an
// HTTP error or a well-formed JSON-RPC envelope.
func FuzzServerRobustness(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`{"jsonrpc":"2.0"}`,
		`{"jsonrpc":"2.0","method":"spectrum.paws.init","params":{},"id":1}`,
		`{"jsonrpc":"2.0","method":"spectrum.paws.getSpectrum","params":{"deviceDesc":{"serialNumber":"x"},"location":{"latitude":52.2,"longitude":0.12}},"id":2}`,
		`{"jsonrpc":"1.0","method":"spectrum.paws.init","params":{},"id":3}`,
		`{"jsonrpc":"2.0","method":"bogus","params":null,"id":4}`,
		`{"jsonrpc":"2.0","method":"spectrum.paws.notifySpectrumUse","params":{"deviceDesc":{"serialNumber":"x"},"spectra":[{"channel":99}]},"id":5}`,
		`[1,2,3]`,
		`{"jsonrpc":"2.0","method":"spectrum.paws.init","params":"not-an-object","id":6}`,
		"\x00\x01\x02",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	reg := spectrum.NewRegistry(spectrum.EU)
	srv := NewServer(reg)
	srv.Now = func() time.Time { return time.Date(2017, 12, 12, 9, 0, 0, 0, time.UTC) }
	hs := httptest.NewServer(srv)
	f.Cleanup(hs.Close)

	f.Fuzz(func(t *testing.T, body []byte) {
		resp, err := http.Post(hs.URL, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("transport error: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return // HTTP-level rejection is fine
		}
		var rr struct {
			JSONRPC string          `json:"jsonrpc"`
			Result  json.RawMessage `json:"result"`
			Error   *RPCError       `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatalf("non-JSON 200 response for body %q: %v", body, err)
		}
		if rr.JSONRPC != "2.0" {
			t.Fatalf("response missing jsonrpc version for body %q", body)
		}
		if rr.Error == nil && rr.Result == nil {
			t.Fatalf("response carries neither result nor error for body %q", body)
		}
	})
}
