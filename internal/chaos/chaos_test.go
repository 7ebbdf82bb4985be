package chaos

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// echoServer accepts connections on a fresh listener and echoes bytes
// back until either side dies.
func echoServer(t *testing.T) net.Listener {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			nc, err := lis.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				io.Copy(nc, nc)
			}()
		}
	}()
	t.Cleanup(func() { lis.Close() })
	return lis
}

// runScript pushes the same fixed byte script through a fault-wrapped
// loopback echo connection and records what came back, so two runs with
// the same seed can be compared byte for byte.
func runScript(t *testing.T, cfg Config, rounds int) ([]byte, Stats) {
	t.Helper()
	inj := New(cfg)
	lis := echoServer(t)
	raw, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	nc := inj.Conn(raw)
	defer nc.Close()

	var got bytes.Buffer
	buf := make([]byte, 64)
	for i := 0; i < rounds; i++ {
		msg := []byte{byte(i), byte(i >> 8), 0xAB, 0xCD}
		if _, err := nc.Write(msg); err != nil {
			break
		}
		nc.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, err := nc.Read(buf)
		got.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return got.Bytes(), inj.Stats()
}

func TestDeterministicFromSeed(t *testing.T) {
	cfg := Config{Seed: 7, CorruptProb: 0.3, TruncateProb: 0.05, ResetProb: 0.05}
	a, sa := runScript(t, cfg, 200)
	b, sb := runScript(t, cfg, 200)
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed diverged:\n%x\n%x", a, b)
	}
	if sa != sb {
		t.Fatalf("same seed, different fault counts: %+v vs %+v", sa, sb)
	}
	if sa.Corruptions == 0 {
		t.Fatalf("corruption never injected over 200 rounds: %+v", sa)
	}

	cfg.Seed = 8
	c, _ := runScript(t, cfg, 200)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical fault streams")
	}
}

func TestBlackholeAfterByteBudget(t *testing.T) {
	inj := New(Config{Seed: 1, BlackholeAfter: 8})
	lis := echoServer(t)
	raw, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	nc := inj.Conn(raw)
	defer nc.Close()

	// First exchange fits inside the budget.
	if _, err := nc.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := nc.Read(buf); err != nil {
		t.Fatalf("pre-blackhole read: %v", err)
	}

	// The budget is spent: writes must be swallowed (report success) and
	// reads must hang until the connection closes.
	if n, err := nc.Write([]byte("lost")); err != nil || n != 4 {
		t.Fatalf("blackholed write: n=%d err=%v, want silent success", n, err)
	}
	readDone := make(chan error, 1)
	go func() {
		_, err := nc.Read(buf)
		readDone <- err
	}()
	select {
	case err := <-readDone:
		t.Fatalf("blackholed read returned (%v); must block", err)
	case <-time.After(200 * time.Millisecond):
	}
	nc.Close()
	select {
	case err := <-readDone:
		if err == nil {
			t.Fatal("read after close must error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blackholed read did not release on Close")
	}
	if inj.Stats().Blackholes != 1 {
		t.Fatalf("stats: %+v, want exactly 1 blackhole trip", inj.Stats())
	}
}

func TestSetBlackholeTripsLiveConn(t *testing.T) {
	inj := New(Config{Seed: 3})
	lis := echoServer(t)
	raw, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	nc := inj.Conn(raw)
	defer nc.Close()

	if _, err := nc.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := nc.Read(buf); err != nil {
		t.Fatal(err)
	}

	inj.SetBlackhole(true)
	if n, err := nc.Write([]byte("gone")); err != nil || n != 4 {
		t.Fatalf("forced blackhole write: n=%d err=%v", n, err)
	}
	done := make(chan struct{})
	go func() {
		nc.Read(buf)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("read completed through a forced blackhole")
	case <-time.After(150 * time.Millisecond):
	}
	nc.Close()
	<-done
}

func TestRefuseProbAtAccept(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	inj := New(Config{Seed: 11, RefuseProb: 1.0})
	lis := inj.Listener(inner)

	accepted := make(chan net.Conn, 1)
	go func() {
		nc, err := lis.Accept()
		if err == nil {
			accepted <- nc
		}
	}()
	// Every dial is answered at the TCP level and then slammed shut; the
	// wrapped Accept never hands a refused conn to the server.
	for i := 0; i < 3; i++ {
		nc, err := net.Dial("tcp", inner.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		nc.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := nc.Read(make([]byte, 1)); err == nil {
			t.Fatal("refused conn delivered data")
		}
		nc.Close()
	}
	select {
	case nc := <-accepted:
		nc.Close()
		t.Fatal("Accept returned despite refuse=1.0")
	case <-time.After(100 * time.Millisecond):
	}
	if got := inj.Stats().Refusals; got < 3 {
		t.Fatalf("refusals = %d, want >= 3", got)
	}
}

func TestTruncateSeversConn(t *testing.T) {
	inj := New(Config{Seed: 5, TruncateProb: 1.0})
	lis := echoServer(t)
	raw, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	nc := inj.Conn(raw)
	defer nc.Close()

	if _, err := nc.Write([]byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := nc.Read(buf)
	if err != nil {
		t.Fatalf("truncated read should deliver the prefix first: %v", err)
	}
	if n >= 10 || n < 1 {
		t.Fatalf("truncated read delivered %d bytes of 10", n)
	}
	if _, err := nc.Read(buf); err == nil {
		t.Fatal("connection must be severed after a truncation")
	}
	if inj.Stats().Truncations == 0 {
		t.Fatal("truncation not counted")
	}
}

func TestPartitionRxParksReadsKeepsWrites(t *testing.T) {
	inj := New(Config{Seed: 2, PartitionDir: "rx", PartitionAfter: 8})
	lis := echoServer(t)
	raw, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	nc := inj.Conn(raw)
	defer nc.Close()

	// First exchange fits inside the budget.
	if _, err := nc.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := nc.Read(buf); err != nil {
		t.Fatalf("pre-partition read: %v", err)
	}

	// Budget spent: writes must still reach the wire, reads must park
	// until the socket dies — the rx half of an asymmetric partition.
	if n, err := nc.Write([]byte("still-flows")); err != nil || n != 11 {
		t.Fatalf("post-partition write: n=%d err=%v, want wire delivery", n, err)
	}
	readDone := make(chan error, 1)
	go func() {
		_, err := nc.Read(buf)
		readDone <- err
	}()
	select {
	case err := <-readDone:
		t.Fatalf("rx-partitioned read returned (%v); must park", err)
	case <-time.After(200 * time.Millisecond):
	}
	nc.Close()
	select {
	case err := <-readDone:
		if err == nil {
			t.Fatal("read after close must error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("partitioned read did not release on Close")
	}
	if got := inj.Stats().Partitions; got != 1 {
		t.Fatalf("partitions = %d, want exactly 1 latch", got)
	}
}

func TestPartitionTxDiscardsWritesKeepsReads(t *testing.T) {
	// PartitionAfter zero: tx dies from the very first byte. The echo
	// server never receives anything, so reads see only silence — but a
	// read against bytes the peer pushed spontaneously must still work.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	served := make(chan net.Conn, 1)
	go func() {
		nc, err := lis.Accept()
		if err == nil {
			nc.Write([]byte("hello"))
			served <- nc
		}
	}()

	inj := New(Config{Seed: 2, PartitionDir: "tx"})
	raw, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	nc := inj.Conn(raw)
	defer nc.Close()

	if n, err := nc.Write([]byte("vanishes")); err != nil || n != 8 {
		t.Fatalf("tx-partitioned write: n=%d err=%v, want silent discard", n, err)
	}
	buf := make([]byte, 16)
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := nc.Read(buf)
	if err != nil || string(buf[:n]) != "hello" {
		t.Fatalf("inbound read through tx partition: %q, %v", buf[:n], err)
	}
	sc := <-served
	sc.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	if n, _ := sc.Read(buf); n != 0 {
		t.Fatalf("server received %d bytes through a tx partition", n)
	}
	sc.Close()
	if got := inj.Stats().Partitions; got != 1 {
		t.Fatalf("partitions = %d, want 1", got)
	}
}

func TestFlapSeversAfterByteBudget(t *testing.T) {
	inj := New(Config{Seed: 4, FlapBytes: 8})
	lis := echoServer(t)

	dial := func() net.Conn {
		raw, err := net.Dial("tcp", lis.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		return inj.Conn(raw)
	}

	// Each connection makes a little progress, then dies; a fresh dial
	// gets a fresh budget — the reconnect-storm shape.
	for round := 0; round < 3; round++ {
		nc := dial()
		if _, err := nc.Write([]byte("ping")); err != nil {
			t.Fatalf("round %d: first write: %v", round, err)
		}
		// Budget is 8 bytes: 4 out + 4 echoed. The echo delivers (possibly
		// split across reads), then the conn must be dead.
		buf := make([]byte, 16)
		total := 0
		var rerr error
		for i := 0; i < 10 && rerr == nil; i++ {
			nc.SetReadDeadline(time.Now().Add(2 * time.Second))
			var n int
			n, rerr = nc.Read(buf)
			total += n
		}
		if rerr == nil {
			t.Fatalf("round %d: connection never severed after budget", round)
		}
		if total != 4 {
			t.Fatalf("round %d: echoed %d bytes before sever, want 4", round, total)
		}
		nc.Close()
	}
	if got := inj.Stats().Flaps; got != 3 {
		t.Fatalf("flaps = %d, want 3 (one sever per connection)", got)
	}
}

func TestSkewDeterministicPerKey(t *testing.T) {
	a := New(Config{Seed: 9, SkewMax: 2 * time.Second})
	b := New(Config{Seed: 9, SkewMax: 2 * time.Second})
	keys := []string{"gate-0", "gate-1", "gate-2", "dock-door"}
	distinct := map[time.Duration]bool{}
	for _, k := range keys {
		sa, sb := a.Skew(k), b.Skew(k)
		if sa != sb {
			t.Fatalf("Skew(%q) not deterministic: %v vs %v", k, sa, sb)
		}
		if sa < -2*time.Second || sa > 2*time.Second {
			t.Fatalf("Skew(%q) = %v outside [-2s, 2s]", k, sa)
		}
		distinct[sa] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("all %d keys skewed identically (%v)", len(keys), distinct)
	}
	if got := New(Config{Seed: 9}).Skew("gate-0"); got != 0 {
		t.Fatalf("zero SkewMax must mean zero skew, got %v", got)
	}
	if other := New(Config{Seed: 10, SkewMax: 2 * time.Second}).Skew("gate-0"); other == a.Skew("gate-0") {
		t.Fatal("different seeds produced identical skew for the same key")
	}
}

func TestParseSpec(t *testing.T) {
	cases := []struct {
		name string
		spec string
		want Config
	}{
		{
			// The pre-partition grammar must keep parsing byte-identically.
			name: "legacy full spec",
			spec: "seed=42, latency=5ms,jitter=2ms,corrupt=0.01,reset=0.02,blackhole-after=65536,refuse=0.2,stall=0.001,truncate=0.03",
			want: Config{
				Seed: 42, Latency: 5 * time.Millisecond, Jitter: 2 * time.Millisecond,
				CorruptProb: 0.01, ResetProb: 0.02, BlackholeAfter: 65536,
				RefuseProb: 0.2, StallProb: 0.001, TruncateProb: 0.03,
			},
		},
		{name: "empty", spec: "", want: Config{}},
		{
			name: "partition rx with budget",
			spec: "seed=7,partition=rx,partition-after=4096",
			want: Config{Seed: 7, PartitionDir: "rx", PartitionAfter: 4096},
		},
		{
			name: "partition tx immediate",
			spec: "partition=tx",
			want: Config{PartitionDir: "tx"},
		},
		{
			name: "partition both",
			spec: "partition=both,partition-after=1",
			want: Config{PartitionDir: "both", PartitionAfter: 1},
		},
		{
			name: "flap storm",
			spec: "seed=3,flap=8192",
			want: Config{Seed: 3, FlapBytes: 8192},
		},
		{
			name: "clock skew",
			spec: "skew=1.5s",
			want: Config{SkewMax: 1500 * time.Millisecond},
		},
		{
			name: "kitchen sink",
			spec: "seed=1,latency=1ms,corrupt=0.05,partition=rx,partition-after=65536,flap=32768,skew=250ms",
			want: Config{
				Seed: 1, Latency: time.Millisecond, CorruptProb: 0.05,
				PartitionDir: "rx", PartitionAfter: 65536,
				FlapBytes: 32768, SkewMax: 250 * time.Millisecond,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ParseSpec(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("got %+v, want %+v", got, tc.want)
			}
			// Round trip: the canonical rendering re-parses to the same
			// config, and re-rendering is a fixed point.
			spec := got.Spec()
			back, err := ParseSpec(spec)
			if err != nil {
				t.Fatalf("re-parsing canonical %q: %v", spec, err)
			}
			if back != got {
				t.Fatalf("round trip drifted: %q -> %+v, want %+v", spec, back, got)
			}
			if again := back.Spec(); again != spec {
				t.Fatalf("Spec not canonical: %q vs %q", spec, again)
			}
		})
	}

	for _, bad := range []string{
		"latency", "bogus=1", "corrupt=1.5", "latency=fast",
		"partition=up", "partition=", "partition-after=lots", "flap=often", "skew=big",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("spec %q must error", bad)
		}
	}
}

// TestParseSpecRejectsMisbehavingValues pins the values that parse as
// numbers but would break the injector: a NaN probability never fires and
// breaks the Spec round trip, a negative duration or byte budget injects
// nothing, and a skew past the int64 range panics in Injector.Skew.
func TestParseSpecRejectsMisbehavingValues(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want error
	}{
		{"corrupt=NaN", ErrBadProbability},
		{"refuse=nan", ErrBadProbability},
		{"stall=-0.5", ErrBadProbability},
		{"latency=-1s", ErrNegative},
		{"jitter=-5ms", ErrNegative},
		{"skew=-1s", ErrNegative},
		{"blackhole-after=-1", ErrNegative},
		{"partition=rx,partition-after=-2", ErrNegative},
		{"flap=-1", ErrNegative},
		{"skew=2000000h", ErrSkewTooLarge},
	} {
		t.Run(tc.spec, func(t *testing.T) {
			cfg, err := ParseSpec(tc.spec)
			if !errors.Is(err, tc.want) {
				t.Fatalf("ParseSpec(%q) = %+v, %v; want %v", tc.spec, cfg, err, tc.want)
			}
		})
	}
	// The largest accepted skew still draws an offset within range.
	cfg, err := ParseSpec("skew=" + maxSkew.String())
	if err != nil {
		t.Fatal(err)
	}
	if d := New(cfg).Skew("reader-1"); d < -maxSkew || d > maxSkew {
		t.Fatalf("skew %v outside ±%v", d, maxSkew)
	}
}
