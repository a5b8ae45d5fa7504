package faultinject

import (
	"bytes"
	"errors"
	"strconv"
	"testing"
	"time"
)

func TestNilInjectorIsNoOp(t *testing.T) {
	var in *Injector
	in.MaybePanic("site", 1, 2) // must not panic
	blob := []byte{1, 2, 3}
	got, fired := in.Corrupt(blob, 0)
	if fired || !bytes.Equal(got, blob) {
		t.Fatal("nil injector corrupted data")
	}
	if in.Maybe(KindStall, 0) || in.Fired(KindPanic) != 0 || in.Report() != nil {
		t.Fatal("nil injector not inert")
	}
}

func TestParse(t *testing.T) {
	in, err := Parse("seed=7,panic=0.5,bitflip=0.25,delayms=10,stall=1")
	if err != nil {
		t.Fatal(err)
	}
	if in == nil {
		t.Fatal("expected active injector")
	}
	if in.cfg.Seed != 7 || in.cfg.Prob[KindPanic] != 0.5 || in.cfg.Delay != 10*time.Millisecond {
		t.Fatalf("bad config: %+v", in.cfg)
	}
	if in, err := Parse(""); err != nil || in != nil {
		t.Fatal("empty spec must be nil,nil")
	}
	if in, err := Parse("panic=0"); err != nil || in != nil {
		t.Fatal("all-zero spec must collapse to nil")
	}
	for _, bad := range []string{"wat", "panic=2", "seed=x", "nope=1", "delayms=-1", "delay=0.5"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
	// A malformed seed must wrap the strconv cause, not flatten it to
	// a string: callers can inspect the chain with errors.Is/As.
	_, err = Parse("seed=notanumber")
	var numErr *strconv.NumError
	if !errors.As(err, &numErr) {
		t.Errorf("Parse(seed=notanumber) = %v, want wrapped *strconv.NumError", err)
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() *Injector {
		in, err := Parse("seed=42,panic=0.3,bitflip=0.3,truncate=0.3,stall=0.3")
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	a, b := mk(), mk()
	blob := bytes.Repeat([]byte{0xAB}, 64)
	for i := uint64(0); i < 200; i++ {
		ga, fa := a.Corrupt(blob, i)
		gb, fb := b.Corrupt(blob, i)
		if fa != fb || !bytes.Equal(ga, gb) {
			t.Fatalf("key %d: corruption not deterministic", i)
		}
		if a.Maybe(KindStall, i) != b.Maybe(KindStall, i) {
			t.Fatalf("key %d: stall not deterministic", i)
		}
	}
	if a.Fired(KindBitFlip) == 0 && a.Fired(KindTruncate) == 0 {
		t.Fatal("nothing ever fired at p=0.3 over 200 sites")
	}
}

func TestMaybePanicThrowsTypedValue(t *testing.T) {
	in := New(Config{Seed: 1, Prob: [NumKinds]float64{KindPanic: 1}})
	defer func() {
		r := recover()
		p, ok := r.(Panic)
		if !ok || p.Site != "slab" {
			t.Fatalf("want Panic{slab}, got %#v", r)
		}
		if in.Fired(KindPanic) != 1 {
			t.Fatal("fired counter not incremented")
		}
	}()
	in.MaybePanic("slab", 9)
}

func TestCorruptCopiesBeforeMutating(t *testing.T) {
	in := New(Config{Seed: 3, Prob: [NumKinds]float64{KindBitFlip: 1}})
	blob := bytes.Repeat([]byte{0x55}, 32)
	orig := bytes.Clone(blob)
	got, fired := in.Corrupt(blob, 1)
	if !fired {
		t.Fatal("p=1 must fire")
	}
	if !bytes.Equal(blob, orig) {
		t.Fatal("Corrupt mutated the caller's slice")
	}
	if bytes.Equal(got, orig) {
		t.Fatal("no bit was flipped")
	}
}

func TestTruncateShortens(t *testing.T) {
	in := New(Config{Seed: 5, Prob: [NumKinds]float64{KindTruncate: 1}})
	blob := bytes.Repeat([]byte{0x77}, 48)
	got, fired := in.Corrupt(blob, 2)
	if !fired || len(got) >= len(blob) {
		t.Fatalf("truncate: fired=%v len=%d", fired, len(got))
	}
}

func TestMaxFiresBounds(t *testing.T) {
	in := New(Config{Seed: 1, Prob: [NumKinds]float64{KindStall: 1}, MaxFires: 3})
	n := 0
	for i := uint64(0); i < 10; i++ {
		if in.Maybe(KindStall, i) {
			n++
		}
	}
	if n != 3 {
		t.Fatalf("max=3 but fired %d times", n)
	}
}

func TestFromEnv(t *testing.T) {
	env := map[string]string{EnvVar: "seed=1,panic=1"}
	lookup := func(k string) (string, bool) { v, ok := env[k]; return v, ok }
	if in := FromEnv(lookup); in == nil {
		t.Fatal("env spec should activate")
	}
	if in := FromEnv(func(string) (string, bool) { return "", false }); in != nil {
		t.Fatal("unset env must be nil")
	}
	env[EnvVar] = "garbage"
	if in := FromEnv(lookup); in != nil {
		t.Fatal("invalid env must be nil")
	}
}

// TestKindValues pins the kinds' values: roll hashes them, so a
// renumbered kind would fire at other sites for the same seed (the
// load gate's seed=7 client-fault soak among them). The retired kind 3
// has no name and no Report entry.
func TestKindValues(t *testing.T) {
	for k, want := range map[Kind]int{KindPanic: 0, KindBitFlip: 1, KindTruncate: 2,
		KindSlowClient: 4, KindDisconnect: 5, KindStall: 6} {
		if int(k) != want {
			t.Errorf("%v = %d, want %d", k, int(k), want)
		}
	}
	if s := Kind(3).String(); s != "unknown" {
		t.Errorf("retired kind 3 is named %q", s)
	}
	rep := New(Config{Prob: [NumKinds]float64{KindPanic: 1}}).Report()
	if _, ok := rep[""]; ok || len(rep) != NumKinds-1 {
		t.Errorf("Report keys: %v", rep)
	}
}
