package hwpf

import (
	"reflect"
	"strings"
	"testing"

	"stridepf/internal/machine"
	"stridepf/internal/obs"
)

// TestSchemesRegistry pins the registry surface the arena, the CLI flags
// and the simcheck property all enumerate: sorted, complete, and with the
// default scheme present.
func TestSchemesRegistry(t *testing.T) {
	want := []string{"baer-chen", "multi-stride", "rpt", "tracker"}
	if got := Schemes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Schemes() = %v, want %v", got, want)
	}
	found := false
	for _, s := range Schemes() {
		found = found || s == DefaultScheme
	}
	if !found {
		t.Errorf("DefaultScheme %q is not registered", DefaultScheme)
	}
}

// TestNewSchemeRoundTrip checks every registered constructor yields a fresh
// prefetcher whose Name matches its registry key and which satisfies the
// machine attachment point.
func TestNewSchemeRoundTrip(t *testing.T) {
	for _, name := range Schemes() {
		p, err := NewScheme(name, Config{})
		if err != nil {
			t.Fatalf("NewScheme(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("NewScheme(%q).Name() = %q", name, p.Name())
		}
		var hw machine.HWPrefetcher = p // every scheme must attach to a machine
		_ = hw
		if c := p.Counters(); c != (Counters{}) {
			t.Errorf("fresh %q has non-zero counters %+v", name, c)
		}
	}
}

// TestNewSchemeUnknown checks the error names the valid set, since it
// surfaces directly through the -hwpf CLI flags.
func TestNewSchemeUnknown(t *testing.T) {
	_, err := NewScheme("nextline", Config{})
	if err == nil {
		t.Fatal("NewScheme accepted an unknown scheme")
	}
	for _, name := range Schemes() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list valid scheme %q", err, name)
		}
	}
}

// TestDisabledSuppressesIssueOnly pins the Disabled contract the
// hwpfneutral simcheck property builds on: a disabled prefetcher advances
// its state machines and counters exactly as an enabled one, but never
// touches the hierarchy.
func TestDisabledSuppressesIssueOnly(t *testing.T) {
	for _, name := range Schemes() {
		t.Run(name, func(t *testing.T) {
			off, err := NewScheme(name, Config{Disabled: true})
			if err != nil {
				t.Fatal(err)
			}
			on, err := NewScheme(name, Config{})
			if err != nil {
				t.Fatal(err)
			}
			hOff, hOn := newHier(), newHier()
			col := obs.NewCollector(nil)
			hOff.EnableObs(col)
			base := uint64(0xc0_000)
			for i := 0; i < 20; i++ {
				a := base + uint64(i)*64
				off.Observe(9, a, hOff, uint64(i*10))
				on.Observe(9, a, hOn, uint64(i*10))
			}
			if off.Counters() != on.Counters() {
				t.Errorf("disabled counters %+v diverge from enabled %+v",
					off.Counters(), on.Counters())
			}
			if off.Counters().Issued == 0 {
				t.Error("stride stream confirmed no predictions; the test is vacuous")
			}
			if got := col.Totals(); got.Attempts() != 0 {
				t.Errorf("disabled %q reached the hierarchy: %+v", name, got)
			}
		})
	}
}

// TestPredictTargetBoundaries pins the shared wrap detector at the exact
// edges every scheme funnels through.
func TestPredictTargetBoundaries(t *testing.T) {
	cases := []struct {
		addr   uint64
		delta  int64
		wantOK bool
	}{
		{0x1000, 64, true},
		{0x1000, -64, true},
		{0x100, -0x100, false},       // lands exactly on 0
		{0x100, -0x101, false},       // crosses 0
		{0x100, -0xff, true},         // stops at 1
		{^uint64(0) - 63, 64, false}, // crosses the top
		{^uint64(0) - 64, 64, true},  // lands on the last byte
		{0, 64, true},
	}
	for _, tc := range cases {
		got, ok := predictTarget(tc.addr, tc.delta)
		if ok != tc.wantOK {
			t.Errorf("predictTarget(%#x, %d) ok = %v, want %v", tc.addr, tc.delta, ok, tc.wantOK)
		}
		if ok && got != tc.addr+uint64(tc.delta) {
			t.Errorf("predictTarget(%#x, %d) = %#x", tc.addr, tc.delta, got)
		}
	}
}
