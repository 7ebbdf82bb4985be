package promtext

import (
	"net/http/httptest"
	"testing"
)

func TestLabelValueEscaping(t *testing.T) {
	cases := []struct {
		name, value, want string
	}{
		{"plain", "aisle1", `x{l="aisle1"} 1`},
		{"tab passes through", "aisle\t1", "x{l=\"aisle\t1\"} 1"},
		{"no-break space passes through", "aisle\u00a01", "x{l=\"aisle\u00a01\"} 1"},
		{"invalid UTF-8 passes through", "a\xff\xfeb", "x{l=\"a\xff\xfeb\"} 1"},
		{"backslash", `a\b`, `x{l="a\\b"} 1`},
		{"double quote", `a"b`, `x{l="a\"b"} 1`},
		{"line feed", "a\nb", `x{l="a\nb"} 1`},
		{"carriage return passes through", "a\rb", "x{l=\"a\rb\"} 1"},
	}
	for _, tc := range cases {
		var p Page
		f := Family{p: &p, name: "x"}
		f.Int(1, "l", tc.value)
		if got := string(p.buf); got != tc.want+"\n" {
			t.Errorf("%s: got %q, want %q", tc.name, got, tc.want+"\n")
		}
	}
}

// TestPageLayout: HELP and TYPE once per family, then its samples with
// labels in the order given, signed and unsigned values as written.
func TestPageLayout(t *testing.T) {
	var p Page
	g := p.Gauge("tw_lag", "Lag in bytes (-1 unknown).")
	g.Int(-1, "peer", "b", "aa", "z")
	g.Int(7)
	c := p.Counter("tw_sent_total", "Sent\\received\nper peer.")
	c.Uint(18446744073709551615, "zz", "1", "a", "2")
	want := "# HELP tw_lag Lag in bytes (-1 unknown).\n" +
		"# TYPE tw_lag gauge\n" +
		"tw_lag{peer=\"b\",aa=\"z\"} -1\n" +
		"tw_lag 7\n" +
		"# HELP tw_sent_total Sent\\\\received\\nper peer.\n" +
		"# TYPE tw_sent_total counter\n" +
		"tw_sent_total{zz=\"1\",a=\"2\"} 18446744073709551615\n"
	if got := string(p.buf); got != want {
		t.Fatalf("page:\n%s\nwant:\n%s", got, want)
	}
}

func TestHandlerServesPage(t *testing.T) {
	h := Handler(func(p *Page) {
		p.Gauge("tw_up", "Up.").Int(Bool(true))
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if got, want := rec.Body.String(), "# HELP tw_up Up.\n# TYPE tw_up gauge\ntw_up 1\n"; got != want {
		t.Fatalf("body %q, want %q", got, want)
	}
}
