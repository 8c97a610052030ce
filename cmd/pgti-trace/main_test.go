package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestNs covers both conversions: the exporter's exact three-decimal form
// and the float fallback for longer fractions and exponents, whose sign
// must survive.
func TestNs(t *testing.T) {
	for _, c := range []struct {
		in   string
		want int64
	}{
		{"12.5", 12500},
		{"-0.001", -1},
		{"-1.2345", -1234},
		{"-1e3", -1000000},
		{"1.23456", 1234},
	} {
		got, err := ns(json.Number(c.in))
		if err != nil || got != c.want {
			t.Errorf("ns(%s) = %d, %v; want %d", c.in, got, err, c.want)
		}
	}
}

func TestValidateRejectsNegativeFloatTs(t *testing.T) {
	tf, err := parse(strings.NewReader(`{"traceEvents": [
		{"ph": "X", "name": "step", "pid": 1, "tid": 1, "ts": -1.2345, "dur": 1}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	errs := validate(tf.TraceEvents)
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "negative ts") {
		t.Fatalf("validate = %v, want one negative-ts error", errs)
	}
}
