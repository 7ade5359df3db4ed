package workload

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestUniformConfigValidate(t *testing.T) {
	good := PaperDefaults(2, 10)
	if err := good.Validate(); err != nil {
		t.Fatalf("paper defaults invalid: %v", err)
	}
	bad := []UniformConfig{
		{D: 0, N: 1, Mu: 1, T: 10, B: 10},
		{D: 1, N: 0, Mu: 1, T: 10, B: 10},
		{D: 1, N: 1, Mu: 0, T: 10, B: 10},
		{D: 1, N: 1, Mu: 1, T: 10, B: 0},
		{D: 1, N: 1, Mu: 20, T: 10, B: 10}, // T < Mu
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestUniformRespectsRanges(t *testing.T) {
	cfg := UniformConfig{D: 3, N: 500, Mu: 7, T: 50, B: 10}
	l, err := Uniform(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != cfg.N {
		t.Fatalf("N = %d, want %d", l.Len(), cfg.N)
	}
	if err := l.Validate(); err != nil {
		t.Fatalf("generated list invalid: %v", err)
	}
	for _, it := range l.Items {
		if it.Arrival != math.Trunc(it.Arrival) || it.Arrival < 0 || it.Arrival > float64(cfg.T-cfg.Mu) {
			t.Fatalf("arrival %v out of range", it.Arrival)
		}
		dur := it.Duration()
		if dur != math.Trunc(dur) || dur < 1 || dur > float64(cfg.Mu) {
			t.Fatalf("duration %v out of range", dur)
		}
		for _, s := range it.Size {
			scaled := s * float64(cfg.B)
			if math.Abs(scaled-math.Round(scaled)) > 1e-9 || s <= 0 || s > 1 {
				t.Fatalf("size %v not an integral multiple of 1/B in (0,1]", s)
			}
		}
	}
}

func TestUniformSeedDeterminism(t *testing.T) {
	cfg := PaperDefaults(2, 10)
	a, _ := Uniform(cfg, 7)
	b, _ := Uniform(cfg, 7)
	if a.Len() != b.Len() {
		t.Fatal("lengths differ")
	}
	for i := range a.Items {
		if a.Items[i].Arrival != b.Items[i].Arrival || a.Items[i].Departure != b.Items[i].Departure ||
			!a.Items[i].Size.Equal(b.Items[i].Size, 0) {
			t.Fatalf("item %d differs across same-seed runs", i)
		}
	}
	c, _ := Uniform(cfg, 8)
	same := true
	for i := range a.Items {
		if a.Items[i].Arrival != c.Items[i].Arrival {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical arrivals (suspicious)")
	}
}

func TestUniformMuBound(t *testing.T) {
	// Generated μ is at most configured Mu (min duration >= 1, max <= Mu).
	cfg := UniformConfig{D: 1, N: 2000, Mu: 20, T: 100, B: 10}
	l, _ := Uniform(cfg, 3)
	if got := l.Mu(); got > float64(cfg.Mu)+1e-9 {
		t.Errorf("Mu = %v > %d", got, cfg.Mu)
	}
	if got := l.MinDuration(); got < 1 {
		t.Errorf("MinDuration = %v < 1", got)
	}
}

func TestSessionsGeneratesValidTrace(t *testing.T) {
	cfg := SessionConfig{
		D: 3, Horizon: 200, Rate: 2,
		MeanDuration: 10, Alpha: 2.5, MinDuration: 1, MaxDuration: 100,
	}
	l, err := Sessions(cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if l.Len() < 100 {
		t.Errorf("expected ~400 sessions, got %d", l.Len())
	}
	for _, it := range l.Items {
		if it.Duration() < cfg.MinDuration-1e-9 || it.Duration() > cfg.MaxDuration+1e-9 {
			t.Fatalf("duration %v outside [%v,%v]", it.Duration(), cfg.MinDuration, cfg.MaxDuration)
		}
	}
}

func TestSessionsValidation(t *testing.T) {
	bad := SessionConfig{D: 0, Horizon: 1, Rate: 1, MeanDuration: 1, Alpha: 2, MinDuration: 1, MaxDuration: 2}
	if _, err := Sessions(bad, 1); err == nil {
		t.Error("D=0 accepted")
	}
	bad2 := SessionConfig{D: 1, Horizon: 1, Rate: 1, MeanDuration: 1, Alpha: 0.5, MinDuration: 1, MaxDuration: 2}
	if _, err := Sessions(bad2, 1); err == nil {
		t.Error("Alpha<=1 accepted")
	}
}

func TestSessionsDeterminism(t *testing.T) {
	cfg := SessionConfig{D: 2, Horizon: 100, Rate: 1, MeanDuration: 5, Alpha: 2, MinDuration: 1, MaxDuration: 50}
	a, _ := Sessions(cfg, 5)
	b, _ := Sessions(cfg, 5)
	if a.Len() != b.Len() {
		t.Fatal("same seed, different lengths")
	}
	for i := range a.Items {
		if a.Items[i].Arrival != b.Items[i].Arrival {
			t.Fatal("same seed, different arrivals")
		}
	}
}

func TestSessionsNeverEmpty(t *testing.T) {
	cfg := SessionConfig{D: 1, Horizon: 0.001, Rate: 0.001, MeanDuration: 5, Alpha: 2, MinDuration: 1, MaxDuration: 50}
	l, err := Sessions(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() == 0 {
		t.Error("degenerate config produced empty list")
	}
}

func TestDiurnal(t *testing.T) {
	cfg := DiurnalConfig{
		Session: SessionConfig{D: 2, Horizon: 240, Rate: 1, MeanDuration: 5, Alpha: 2.2, MinDuration: 1, MaxDuration: 40},
		Period:  24, PeakFactor: 3,
	}
	l, err := Diurnal(cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if _, err := Diurnal(DiurnalConfig{Session: cfg.Session, Period: 0, PeakFactor: 2}, 1); err == nil {
		t.Error("Period=0 accepted")
	}
	if _, err := Diurnal(DiurnalConfig{Session: cfg.Session, Period: 10, PeakFactor: 0.5}, 1); err == nil {
		t.Error("PeakFactor<1 accepted")
	}
}

func TestDefaultTypesDimensions(t *testing.T) {
	for _, d := range []int{1, 2, 5} {
		for _, tp := range DefaultTypes(d) {
			if tp.Demand.Dim() != d {
				t.Errorf("d=%d type %s has dim %d", d, tp.Name, tp.Demand.Dim())
			}
			if !tp.Demand.LeqCapacity() || !tp.Demand.NonNegative() {
				t.Errorf("d=%d type %s demand %v infeasible", d, tp.Name, tp.Demand)
			}
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	l, _ := Uniform(UniformConfig{D: 3, N: 50, Mu: 5, T: 20, B: 10}, 1)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, l); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dim != l.Dim || got.Len() != l.Len() {
		t.Fatalf("shape mismatch: %dx%d vs %dx%d", got.Dim, got.Len(), l.Dim, l.Len())
	}
	for i := range l.Items {
		a, b := l.Items[i], got.Items[i]
		if a.ID != b.ID || a.Arrival != b.Arrival || a.Departure != b.Departure || !a.Size.Equal(b.Size, 0) {
			t.Fatalf("item %d: %v != %v", i, a, b)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	l, _ := Uniform(UniformConfig{D: 2, N: 30, Mu: 4, T: 20, B: 8}, 2)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, l); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dim != l.Dim || got.Len() != l.Len() {
		t.Fatal("shape mismatch")
	}
	for i := range l.Items {
		if !l.Items[i].Size.Equal(got.Items[i].Size, 0) {
			t.Fatalf("item %d size mismatch", i)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",                                                // empty
		"id,arrival,departure,s0\n",                       // header only
		"x,y\n1,2\n",                                      // bad header
		"id,arrival,departure,s0\na,0,1,0.5\n",            // bad id
		"id,arrival,departure,s0\n0,x,1,0.5\n",            // bad arrival
		"id,arrival,departure,s0\n0,0,x,0.5\n",            // bad departure
		"id,arrival,departure,s0\n0,0,1,x\n",              // bad size
		"id,arrival,departure,s0\n0,0,1,1.5\n",            // oversize item
		"id,arrival,departure,s0\n0,0,1,0.5\n0,0,1,0.5\n", // dup id
		"id,arrival,departure,s0\n2147483648,0,1,0.5\n",   // id past item.MaxID
		"id,arrival,departure,s0\n-1,0,1,0.5\n",           // negative id
	}
	for i, s := range cases {
		if _, err := ReadCSV(strings.NewReader(s)); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestReadJSONErrors(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{")); err == nil {
		t.Error("truncated json accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`{"dim":1,"items":[]}`)); err == nil {
		t.Error("empty item list accepted")
	}
}

// Property: CSV round trip preserves every field for arbitrary valid configs.
func TestCSVRoundTripProperty(t *testing.T) {
	f := func(seed uint16, dRaw, muRaw uint8) bool {
		d := int(dRaw%4) + 1
		mu := int(muRaw%20) + 1
		cfg := UniformConfig{D: d, N: 20, Mu: mu, T: mu + 10, B: 10}
		l, err := Uniform(cfg, int64(seed))
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, l); err != nil {
			return false
		}
		got, err := ReadCSV(&buf)
		if err != nil {
			return false
		}
		for i := range l.Items {
			if l.Items[i].Arrival != got.Items[i].Arrival ||
				l.Items[i].Departure != got.Items[i].Departure ||
				!l.Items[i].Size.Equal(got.Items[i].Size, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkUniformPaperInstance(b *testing.B) {
	cfg := PaperDefaults(2, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Uniform(cfg, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
