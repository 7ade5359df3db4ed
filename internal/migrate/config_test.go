package migrate

import "testing"

func TestConfig(t *testing.T) {
	var zero Config
	if zero.Enabled() {
		t.Error("zero Config reports enabled")
	}
	if got := zero.String(); got != "" {
		t.Errorf("zero Config.String() = %q, want empty", got)
	}
	if _, err := zero.Option(); err != nil {
		t.Errorf("zero Config.Option() = %v, want nil error", err)
	}

	c := Config{Planner: "drain-emptiest", Period: 2, MaxMoves: 8}
	if !c.Enabled() {
		t.Error("configured Config reports disabled")
	}
	if got, want := c.String(), "drain-emptiest period=2 moves=8"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	c.MaxCost = 1.5
	if got, want := c.String(), "drain-emptiest period=2 moves=8 cost=1.5"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if _, err := c.Option(); err != nil {
		t.Errorf("Option() = %v", err)
	}

	c.Planner = "no-such-planner"
	if _, err := c.Option(); err == nil {
		t.Error("Option() accepted an unknown planner")
	}
}
