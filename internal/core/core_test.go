package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestOptimalLWSPaperExamples(t *testing.T) {
	// Figure 1: gws=128 on 1c2w4t (hp=8) -> lws=16 is the exact mapping.
	hw := HWInfo{Cores: 1, Warps: 2, Threads: 4}
	if got := OptimalLWS(128, hw); got != 16 {
		t.Errorf("OptimalLWS(128, 1c2w4t) = %d, want 16", got)
	}
	// hp > gws resolves to 1 (Section 3: "Eq. 1 resolves to lws=1").
	big := HWInfo{Cores: 64, Warps: 32, Threads: 32}
	if got := OptimalLWS(4096, big); got != 1 {
		t.Errorf("OptimalLWS(4096, 64c32w32t) = %d, want 1", got)
	}
	// Exact division.
	if got := OptimalLWS(4096, HWInfo{Cores: 4, Warps: 4, Threads: 4}); got != 64 {
		t.Errorf("OptimalLWS(4096, 4c4w4t) = %d, want 64", got)
	}
	// Non-dividing rounds up: 100 work items over hp=8 -> ceil(12.5)=13.
	if got := OptimalLWS(100, hw); got != 13 {
		t.Errorf("OptimalLWS(100, hp=8) = %d, want 13", got)
	}
}

func TestOptimalLWSDegenerateInputs(t *testing.T) {
	if got := OptimalLWS(0, HWInfo{1, 1, 1}); got != 1 {
		t.Errorf("gws=0 -> %d", got)
	}
	if got := OptimalLWS(-5, HWInfo{1, 1, 1}); got != 1 {
		t.Errorf("gws<0 -> %d", got)
	}
	if got := OptimalLWS(64, HWInfo{}); got != 1 {
		t.Errorf("invalid hw -> %d", got)
	}
}

func TestOptimalLWSSingleBatchProperty(t *testing.T) {
	// Property: for valid inputs the chosen lws always yields exactly one
	// batch (tasks <= hp) and never an empty slot count.
	f := func(gwsRaw uint16, c, w, th uint8) bool {
		gws := int(gwsRaw)%100000 + 1
		hw := HWInfo{int(c)%64 + 1, int(w)%32 + 1, int(th)%32 + 1}
		lws := OptimalLWS(gws, hw)
		if lws < 1 {
			return false
		}
		return Tasks(gws, lws) <= hw.HP() && Batches(gws, lws, hw) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestOptimalLWSMinimality(t *testing.T) {
	// Property: among single-batch choices, Eq. 1 (with ceil) picks the
	// smallest lws, i.e. lws-1 would need more than one batch or be 0 --
	// except in the hp>=gws clamp where lws=1 is forced.
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		gws := r.Intn(50000) + 1
		hw := HWInfo{r.Intn(64) + 1, r.Intn(32) + 1, r.Intn(32) + 1}
		lws := OptimalLWS(gws, hw)
		if hw.HP() >= gws {
			if lws != 1 {
				t.Fatalf("clamp violated: gws=%d %s lws=%d", gws, hw.Name(), lws)
			}
			continue
		}
		if lws > 1 && Tasks(gws, lws-1) <= hw.HP() {
			t.Fatalf("not minimal: gws=%d %s lws=%d but lws-1 also single-batch", gws, hw.Name(), lws)
		}
	}
}

func TestRegimeTaxonomy(t *testing.T) {
	hw := HWInfo{Cores: 1, Warps: 2, Threads: 4} // hp = 8, the Fig. 1 setup
	cases := []struct {
		gws, lws int
		want     Regime
	}{
		{128, 1, RegimeUnder},  // Fig. 1 top: 128 tasks > 8 slots
		{128, 16, RegimeExact}, // Fig. 1 second: 8 tasks = 8 slots
		{128, 32, RegimeOver},  // Fig. 1 third: 4 tasks < 8 slots
		{128, 64, RegimeOver},  // Fig. 1 bottom: 2 tasks
		{4, 1, RegimeExact},    // hp>gws: naive == ours
	}
	for _, c := range cases {
		if got := RegimeOf(c.gws, c.lws, hw); got != c.want {
			t.Errorf("RegimeOf(%d, %d) = %v, want %v", c.gws, c.lws, got, c.want)
		}
	}
}

func TestBatches(t *testing.T) {
	hw := HWInfo{1, 2, 4}
	if got := Batches(128, 1, hw); got != 16 {
		t.Errorf("Batches(128,1) = %d, want 16", got)
	}
	if got := Batches(128, 16, hw); got != 1 {
		t.Errorf("Batches(128,16) = %d, want 1", got)
	}
	if got := Batches(130, 16, hw); got != 2 {
		t.Errorf("Batches(130,16) = %d, want 2 (9 tasks over 8 slots)", got)
	}
}

func TestMappers(t *testing.T) {
	hw := HWInfo{2, 2, 2}
	if got := (Naive{}).LWS(1000, hw); got != 1 {
		t.Errorf("naive = %d", got)
	}
	if got := (Fixed{N: 32}).LWS(1000, hw); got != 32 {
		t.Errorf("fixed = %d", got)
	}
	if got := (Fixed{N: 0}).LWS(1000, hw); got != 1 {
		t.Errorf("fixed(0) = %d, want clamp to 1", got)
	}
	if got := (Auto{}).LWS(1000, hw); got != OptimalLWS(1000, hw) {
		t.Errorf("auto = %d", got)
	}
	names := []string{Naive{}.Name(), Fixed{N: 32}.Name(), Auto{}.Name()}
	want := []string{"lws=1", "lws=32", "ours"}
	for i := range names {
		if names[i] != want[i] {
			t.Errorf("name %d = %q, want %q", i, names[i], want[i])
		}
	}
}

func TestHWInfo(t *testing.T) {
	h := HWInfo{4, 8, 16}
	if h.HP() != 512 {
		t.Errorf("HP = %d", h.HP())
	}
	if h.Name() != "4c8w16t" {
		t.Errorf("Name = %q", h.Name())
	}
	// AppendName spells every geometry, invalid ones included, as the
	// "%dc%dw%dt" format the notation is defined by.
	for _, g := range []HWInfo{{1, 1, 1}, {64, 32, 32}, {0, -3, 1 << 30}, {math.MinInt, math.MaxInt, 10}} {
		want := fmt.Sprintf("%dc%dw%dt", g.Cores, g.Warps, g.Threads)
		if got := string(g.AppendName([]byte("x/"))); got != "x/"+want {
			t.Errorf("AppendName(%+v) = %q, want %q", g, got, "x/"+want)
		}
	}
	if !h.Valid() {
		t.Error("valid geometry rejected")
	}
	if (HWInfo{0, 1, 1}).Valid() {
		t.Error("invalid geometry accepted")
	}
	// Name is the only spelling ParseName takes: each of these scans as a
	// valid geometry but names a config other than the one that would run.
	for _, s := range []string{"4c8w16tXYZ", "4c8w16t,2c2w2t", "+4c8w16t", "04c8w16t", " 4c8w16t", "4c 8w16t", "4c8w16t\n"} {
		if got, err := ParseName(s); err == nil {
			t.Errorf("ParseName(%q) = %v, want a refusal", s, got)
		}
	}
}

func TestAdvise(t *testing.T) {
	// Exact-fit case.
	a := Advise(128, HWInfo{1, 2, 4})
	if a.LWS != 16 || a.Regime != RegimeExact || a.Batches != 1 || a.SlotsFilled != 8 {
		t.Errorf("advise exact = %+v", a)
	}
	if !strings.Contains(a.Explanation, "128/8") {
		t.Errorf("explanation = %q", a.Explanation)
	}
	// Clamp case.
	a = Advise(4, HWInfo{1, 2, 4})
	if a.LWS != 1 || a.SlotsFilled != 4 {
		t.Errorf("advise clamp = %+v", a)
	}
	if !strings.Contains(a.Explanation, "lws=1") {
		t.Errorf("explanation = %q", a.Explanation)
	}
	// Non-dividing case.
	a = Advise(100, HWInfo{1, 2, 4})
	if a.LWS != 13 || a.Batches != 1 {
		t.Errorf("advise ceil = %+v", a)
	}
	if !strings.Contains(a.Explanation, "ceil") {
		t.Errorf("explanation = %q", a.Explanation)
	}
}

func TestTasksClampsLWS(t *testing.T) {
	if got := Tasks(100, 0); got != 100 {
		t.Errorf("Tasks with lws=0 = %d", got)
	}
	if got := Tasks(100, 1000); got != 1 {
		t.Errorf("Tasks with lws>gws = %d", got)
	}
}

func TestParseMapper(t *testing.T) {
	for _, tc := range []struct{ name, want string }{
		{"ours", "ours"}, {"auto", "ours"},
		{"lws=1", "lws=1"}, {"naive", "lws=1"},
		{"lws=32", "lws=32"}, {"fixed", "lws=32"},
	} {
		if m, err := ParseMapper(tc.name); err != nil || m.Name() != tc.want {
			t.Errorf("ParseMapper(%q) = %v, %v; want %s", tc.name, m, err, tc.want)
		}
	}
	for _, bad := range []string{"", "Ours", "lws=16", "lws=032", "oracle"} {
		if m, err := ParseMapper(bad); err == nil {
			t.Errorf("ParseMapper(%q) = %v, want a refusal", bad, m)
		}
	}
	var names []string
	for _, m := range PaperMappers() {
		names = append(names, m.Name())
	}
	if got := strings.Join(names, ","); got != "lws=1,lws=32,ours" {
		t.Errorf("PaperMappers = %s, want Figure 2's lws=1,lws=32,ours", got)
	}
}

// TestOracleMappers pins the search's candidates: every power of two up to
// 4096, whatever the launch, then Eq. 1.
func TestOracleMappers(t *testing.T) {
	var names []string
	for _, m := range OracleMappers() {
		names = append(names, m.Name())
		if lws := m.LWS(16, HWInfo{1, 2, 2}); m.Name() != "ours" && m.Name() != fmt.Sprintf("lws=%d", lws) {
			t.Errorf("%s launches lws=%d", m.Name(), lws)
		}
	}
	want := "lws=1,lws=2,lws=4,lws=8,lws=16,lws=32,lws=64,lws=128,lws=256,lws=512,lws=1024,lws=2048,lws=4096,ours"
	if got := strings.Join(names, ","); got != want {
		t.Errorf("OracleMappers = %s, want %s", got, want)
	}
}

func TestParseName(t *testing.T) {
	h, err := ParseName("4c8w16t")
	if err != nil || h != (HWInfo{4, 8, 16}) {
		t.Errorf("ParseName = %+v, %v", h, err)
	}
	if h2, err := ParseName(h.Name()); err != nil || h2 != h {
		t.Error("round trip failed")
	}
	for _, bad := range []string{"", "4c8w", "0c1w1t", "x", "4c-8w16t"} {
		if _, err := ParseName(bad); err == nil {
			t.Errorf("ParseName(%q) accepted", bad)
		}
	}
}
