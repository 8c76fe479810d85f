package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestFormatValue pins appendValue byte for byte against the fmt %v it
// replaced, and its quoted form against encoding/json's quoting of that
// string: served and CLI results are compared as strings, and cached
// results outlive the process that rendered them.
func TestFormatValue(t *testing.T) {
	formatValue := func(v any) string {
		s := string(appendValue(nil, v, false))
		want, _ := json.Marshal(s)
		if q := appendValue(nil, v, true); !bytes.Equal(q, want) {
			t.Fatalf("appendValue(%#v) quoted is %s, encoding/json quotes %s", v, q, want)
		}
		return s
	}
	type pair struct{ A, B int64 }
	cases := []struct {
		v    any
		want string
	}{
		{int64(0), "0"},
		{int64(-7), "-7"},
		{int64(math.MaxInt64), "9223372036854775807"},
		{int64(math.MinInt64), "-9223372036854775808"},
		{0.0, "0"},
		{math.Copysign(0, -1), "-0"},
		{1.5, "1.5"},
		{1e20, "1e+20"},
		{1e21, "1e+21"},
		{123456789.0, "1.23456789e+08"},
		{1e-7, "1e-07"},
		{0.0001, "0.0001"},
		{0.15000000000000002, "0.15000000000000002"},
		{math.Inf(1), "+Inf"},
		{math.Inf(-1), "-Inf"},
		{math.NaN(), "NaN"},
		{math.MaxFloat64, "1.7976931348623157e+308"},
		{math.SmallestNonzeroFloat64, "5e-324"},
		{true, "true"},
		{false, "false"},
		{"", ""},
		{"a b", "a b"},
		// Anything else goes through fmt.
		{int(3), "3"},
		{float32(0.1), "0.1"},
		{[]int64{1, 2}, "[1 2]"},
		{pair{1, -2}, "{1 -2}"},
		{nil, "<nil>"},
	}
	for _, c := range cases {
		if got, ref := formatValue(c.v), fmt.Sprintf("%v", c.v); got != c.want || got != ref {
			t.Errorf("formatValue(%#v) = %q, want %q (%%v gives %q)", c.v, got, c.want, ref)
		}
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		n := int64(r.Uint64())
		if i%2 == 0 {
			n >>= uint(r.Intn(64)) // every magnitude, not just 19-digit ones
		}
		f := math.Float64frombits(r.Uint64()) // every exponent, NaNs and denormals included
		if i%2 == 0 {
			f = r.NormFloat64() * math.Pow(10, float64(r.Intn(40)-20))
		}
		if got, ref := formatValue(n), fmt.Sprintf("%v", n); got != ref {
			t.Fatalf("formatValue(%d) = %q, %%v gives %q", n, got, ref)
		}
		if got, ref := formatValue(f), fmt.Sprintf("%v", f); got != ref {
			t.Fatalf("formatValue(%b) = %q, %%v gives %q", f, got, ref)
		}
	}
}
