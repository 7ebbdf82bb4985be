package chaos

import "testing"

// FuzzParseSpec feeds the -chaos flag parser arbitrary strings: it must
// never panic, every accepted spec must come back unchanged through its
// canonical Spec rendering, and the injector it configures must be able
// to draw a clock skew.
func FuzzParseSpec(f *testing.F) {
	f.Add("seed=42,latency=5ms,jitter=2ms,corrupt=0.01,reset=0.02,blackhole-after=65536,refuse=0.2")
	f.Add("seed=1,latency=1ms,corrupt=0.05,partition=rx,partition-after=65536,flap=32768,skew=250ms")
	f.Add("partition=both,partition-after=1")
	f.Add("corrupt=NaN")
	f.Add("skew=2000000h")
	f.Add("skew=" + maxSkew.String())
	f.Add("jitter=-5ms,flap=-1")
	f.Add(" , seed = -3 ,stall=1e-300")
	f.Add("")
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseSpec(spec)
		if err != nil {
			return
		}
		canonical := cfg.Spec()
		back, err := ParseSpec(canonical)
		if err != nil || back != cfg {
			t.Fatalf("%q parsed to %+v, but its Spec %q re-parsed to %+v, %v", spec, cfg, canonical, back, err)
		}
		New(cfg).Skew(spec)
	})
}
