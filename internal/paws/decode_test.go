package paws

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"cellfi/internal/geo"
	"cellfi/internal/spectrum"
)

// serverSpectrumBody returns the raw getSpectrum response srv writes
// for a device at loc.
func serverSpectrumBody(tb testing.TB, srv *Server, serial string, loc geo.Point, id int64) []byte {
	tb.Helper()
	params, err := json.Marshal(AvailSpectrumReq{
		DeviceDesc:     DeviceDescriptor{SerialNumber: serial, DeviceType: "FIXED"},
		Location:       ToGeo(loc),
		AntennaHeightM: 15,
	})
	if err != nil {
		tb.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/paws",
		bytes.NewReader(appendRPCRequest(nil, MethodGetSpectrum, params, id)))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec.Body.Bytes()
}

// stdSpectrum is the reference decode of body into a fresh value.
func stdSpectrum(body []byte) (AvailSpectrumResp, *Error) {
	var out AvailSpectrumResp
	err := decodeRPCResponseStd(MethodGetSpectrum, body, &out)
	return out, err
}

// TestFastPathAcceptsServerOutput pins the contract between the
// server's hand-assembled getSpectrum writer and the client's fast
// reader: every body this package's Server writes must take the fast
// path, and decode to exactly what encoding/json yields. A writer
// change that the reader does not follow fails here instead of
// silently routing every response through the slow path.
func TestFastPathAcceptsServerOutput(t *testing.T) {
	base := time.Date(2017, 6, 1, 12, 0, 0, 0, time.UTC)
	zones := []*time.Location{time.UTC, time.FixedZone("", 2*3600), time.FixedZone("", -5*3600-1800)}
	var empty, subSecond, bodies int
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		reg := spectrum.NewRegistry(spectrum.EU)
		reg.LeaseDuration = time.Duration(1+rng.Intn(12*3600)) * time.Second
		first, last := reg.Domain.ChannelRange()
		for i := rng.Intn(60); i > 0; i-- {
			inc := spectrum.Incumbent{
				Kind:          spectrum.IncumbentKind(rng.Intn(2)),
				Channel:       first + rng.Intn(last-first+1),
				Location:      geo.Point{X: rng.Float64()*10000 - 5000, Y: rng.Float64()*10000 - 5000},
				ProtectRadius: 100 + rng.Float64()*8000,
			}
			if rng.Intn(3) == 0 {
				inc.From = base.Add(time.Duration(rng.Intn(7200)-3600) * time.Second)
				inc.To = inc.From.Add(time.Duration(1+rng.Intn(7200)) * time.Second)
			}
			if err := reg.AddIncumbent(inc); err != nil {
				t.Fatal(err)
			}
		}
		if seed%10 == 0 {
			// Every channel blocked everywhere: "spectra":[].
			for ch := first; ch <= last; ch++ {
				if err := reg.AddIncumbent(spectrum.Incumbent{Channel: ch, ProtectRadius: 1e7}); err != nil {
					t.Fatal(err)
				}
			}
		}
		srv := NewServer(reg)
		// A skewed database clock, sub-second on most seeds, in a
		// zone that is not always UTC.
		skew := time.Duration(rng.Int63n(int64(48*time.Hour))) - 24*time.Hour
		if seed%4 == 0 {
			skew = skew.Truncate(time.Second)
		}
		zone := zones[rng.Intn(len(zones))]
		var now time.Time
		srv.Now = func() time.Time { return now }
		for q := 0; q < 8; q++ {
			now = base.Add(skew + time.Duration(rng.Int63n(int64(2*time.Hour)))).In(zone)
			if q%2 == 0 {
				now = now.Truncate(time.Millisecond)
			}
			loc := geo.Point{X: rng.Float64()*12000 - 6000, Y: rng.Float64()*12000 - 6000}
			id := rng.Int63()
			body := serverSpectrumBody(t, srv, fmt.Sprintf("AP-%d-%d", seed, q), loc, id)
			want, err := stdSpectrum(body)
			if err != nil {
				t.Fatalf("seed %d query %d: stdlib decode: %v\n%s", seed, q, err, body)
			}
			got, ok := decodeSpectrumFast(body)
			if !ok {
				t.Fatalf("seed %d query %d: fast path declined a server body:\n%s", seed, q, body)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d query %d: fast path diverges from stdlib:\n got %+v\nwant %+v", seed, q, got, want)
			}
			bodies++
			if bytes.Contains(body, []byte(`"spectra":[]`)) {
				empty++
			}
			if now.Nanosecond() != 0 {
				subSecond++
			}
		}
	}
	if empty == 0 || subSecond == 0 {
		t.Fatalf("coverage gap over %d bodies: %d with no channels, %d with sub-second timestamps", bodies, empty, subSecond)
	}
}

// canonicalSpectrumBody is a 40-channel server response, the shape
// a calm chaos world polls for.
func canonicalSpectrumBody(tb testing.TB) []byte {
	srv := NewServer(spectrum.NewRegistry(spectrum.EU))
	srv.Now = func() time.Time { return time.Date(2017, 6, 1, 12, 0, 0, 123456789, time.UTC) }
	return serverSpectrumBody(tb, srv, "AP-BENCH", geo.Point{X: 100, Y: 100}, 42)
}

// TestFastPathDeclinesNearMisses: bodies one step off the server's
// layout must go to the encoding/json fallback, even where the stdlib
// would accept them.
func TestFastPathDeclinesNearMisses(t *testing.T) {
	canon := string(canonicalSpectrumBody(t))
	if _, ok := decodeSpectrumFast([]byte(canon)); !ok {
		t.Fatalf("canonical body declined:\n%s", canon)
	}
	for _, m := range spectrumNearMisses(canon) {
		if _, ok := decodeSpectrumFast([]byte(m.body)); ok {
			t.Errorf("%s: fast path accepted %q", m.name, m.body)
		}
	}
}

// spectrumNearMisses derives bodies from a canonical server response
// that the fast path must decline.
func spectrumNearMisses(canon string) []struct{ name, body string } {
	one := func(old, new string) string { return strings.Replace(canon, old, new, 1) }
	return []struct{ name, body string }{
		{"space after colon", one(`"authority":`, `"authority": `)},
		{"escaped authority", one(`"authority":"gb"`, `"authority":"\u0067b"`)},
		{"upper-case key", one(`"rulesetId"`, `"RulesetId"`)},
		{"duplicate key", one(`"maxPollingSecs":3600`, `"maxPollingSecs":3600,"maxPollingSecs":60`)},
		{"float overflow", one(`"maxLocationChange":50`, `"maxLocationChange":1e400`)},
		{"fractional channel", one(`"channel":36}`, `"channel":36.0}`)},
		{"leading plus", one(`"channel":21}`, `"channel":+21}`)},
		{"leading zero", one(`"channel":21}`, `"channel":021}`)},
		{"trailing garbage", canon + "x"},
		{"second value", canon + `{}`},
		{"truncated", canon[:len(canon)/2]},
		{"error envelope", one(`"id":42}`, `"id":42,"error":{"code":-104,"message":"outside coverage"}}`)},
		{"non-RFC3339 time", one(`"stopTime":"2017-`, `"stopTime":"17-`)},
		{"null spectra", canon[:strings.Index(canon, `"spectra":`)] + `"spectra":null` + canon[strings.Index(canon, `}],"needs`):]},
		{"control byte", one(`"authority":"gb"`, "\"authority\":\"g\x01b\"")},
		{"invalid UTF-8", one(`"authority":"gb"`, "\"authority\":\"g\xffb\"")},
	}
}

// TestRPCRequestEnvelopeMatchesMarshal pins the hand-assembled request
// envelope to json.Marshal of rpcRequest for every method the client
// calls, across the int64 ID range.
func TestRPCRequestEnvelopeMatchesMarshal(t *testing.T) {
	dev := DeviceDescriptor{SerialNumber: `AP<&>"7"`, ManufacturerID: "cellfi",
		DeviceType: "FIXED", RulesetIDs: []string{"ETSI-EN-301-598-2014"}}
	loc := ToGeo(geo.Point{X: 123.4, Y: -56.7})
	params := map[string]any{
		MethodInit:        InitReq{DeviceDesc: dev, Location: loc},
		MethodRegister:    RegisterReq{DeviceDesc: dev, Location: loc, Owner: "owner\u2028"},
		MethodGetSpectrum: AvailSpectrumReq{DeviceDesc: dev, Location: loc, AntennaHeightM: 15},
		MethodNotifyUse:   NotifyUseReq{DeviceDesc: dev, Location: loc, Spectra: []FrequencyRange{{StartHz: 4.7e8, StopHz: 4.78e8, MaxEIRPdBm: 36, Channel: 21}}},
	}
	for method, p := range params {
		raw, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []int64{1, 1 << 31, 1<<63 - 1} {
			want, err := json.Marshal(rpcRequest{JSONRPC: "2.0", Method: method, Params: raw, ID: id})
			if err != nil {
				t.Fatal(err)
			}
			if got := appendRPCRequest(nil, method, raw, id); !bytes.Equal(got, want) {
				t.Errorf("%s id %d:\n got %s\nwant %s", method, id, got, want)
			}
		}
	}
}

// BenchmarkDecodeSpectrum compares the fast path with the encoding/json
// two-pass decode on a 40-channel server response.
func BenchmarkDecodeSpectrum(b *testing.B) {
	body := canonicalSpectrumBody(b)
	b.Run("fast", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if _, ok := decodeSpectrumFast(body); !ok {
				b.Fatal("declined")
			}
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if _, err := stdSpectrum(body); err != nil {
				b.Fatal(err)
			}
		}
	})
}
