// Package promtext writes the Prometheus text exposition format
// (version 0.0.4) with the standard library alone. It covers what the
// tagwatch daemons expose: counter and gauge families with integer
// samples. A family's HELP and TYPE lines are written once, when the
// family is declared; its samples follow with their labels in the
// order the caller gives them. Label values and HELP text are escaped
// exactly as the format defines, so any reader or peer name a
// deployment configures round-trips through a scrape.
package promtext

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// The format defines these escapes and no others; every other byte,
// invalid UTF-8 included, is written unchanged.
var (
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
)

// Page accumulates one exposition.
type Page struct {
	buf []byte
}

// Family is a declared metric family; samples written through it
// follow its HELP and TYPE lines.
type Family struct {
	p    *Page
	name string
}

// Handler serves the page write renders, afresh for each request.
func Handler(write func(*Page)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var p Page
		write(&p)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		w.Write(p.buf)
	})
}

// Counter declares a counter family, writing its HELP and TYPE lines.
func (p *Page) Counter(name, help string) Family { return p.family(name, help, "counter") }

// Gauge declares a gauge family, writing its HELP and TYPE lines.
func (p *Page) Gauge(name, help string) Family { return p.family(name, help, "gauge") }

func (p *Page) family(name, help, typ string) Family {
	p.buf = fmt.Appendf(p.buf, "# HELP %s %s\n# TYPE %s %s\n", name, helpEscaper.Replace(help), name, typ)
	return Family{p: p, name: name}
}

// Int writes one sample with value v. labels alternate label names and
// values and are written in that order.
func (f Family) Int(v int64, labels ...string) { f.sample(strconv.FormatInt(v, 10), labels) }

// Uint writes one sample with value v, labelled as for Int.
func (f Family) Uint(v uint64, labels ...string) { f.sample(strconv.FormatUint(v, 10), labels) }

func (f Family) sample(value string, labels []string) {
	if len(labels)%2 != 0 {
		panic("promtext: labels must come in name, value pairs")
	}
	b := append(f.p.buf, f.name...)
	for i := 0; i < len(labels); i += 2 {
		sep := ','
		if i == 0 {
			sep = '{'
		}
		b = fmt.Appendf(b, `%c%s="%s"`, sep, labels[i], labelEscaper.Replace(labels[i+1]))
	}
	if len(labels) > 0 {
		b = append(b, '}')
	}
	f.p.buf = fmt.Appendf(b, " %s\n", value)
}

// Bool is the sample value of a 0/1 gauge.
func Bool(v bool) int64 {
	if v {
		return 1
	}
	return 0
}
