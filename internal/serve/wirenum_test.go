package serve

import (
	"errors"
	"math"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// scanNumber runs the wire scanner over s from its first byte.
func scanNumber(s []byte) (v float64, end int, err error) {
	d := wireDec{b: s}
	v, err = d.number()
	return v, d.i, err
}

// checkNumber holds the scanner to strconv.ParseFloat on s, a JSON number:
// all of s is consumed, and the value has the same bits, or both refuse it
// as out of range.
func checkNumber(t *testing.T, s string) {
	t.Helper()
	want, wantErr := strconv.ParseFloat(s, 64)
	got, end, err := scanNumber([]byte(s))
	switch {
	case end != len(s):
		t.Errorf("%s: scanned %d of %d bytes (err %v)", s, end, len(s), err)
	case wantErr != nil:
		if !errors.Is(wantErr, strconv.ErrRange) || !errors.Is(err, strconv.ErrRange) {
			t.Errorf("%s: err %v, ParseFloat's %v", s, err, wantErr)
		}
	case err != nil:
		t.Errorf("%s: err %v, ParseFloat %v", s, err, want)
	case math.Float64bits(got) != math.Float64bits(want):
		t.Errorf("%s: %v (%#x), ParseFloat %v (%#x)", s, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// wireNumberCases are the inputs at the edges of each conversion path:
// Clinger's bounds, Eisel–Lemire's halfway and table edges, the digits a
// uint64 holds, and what only ParseFloat decides.
var wireNumberCases = []string{
	"0", "-0", "0.0", "-0.0", "0e0", "-0E-0", "-0.0e5", "0.000000000000000000000000000000", "-0.0e-999", "0e99999999999999999999",
	"1", "-1", "1.5", "0.1", "0.3", "123.456", "-98.765e-3", "1E+2", "2.5e+1", "1e-3",
	// 2^53 − 1, 2^53, 2^53 + 1 (a tie, to even) and the ties and near-ties round them.
	"9007199254740991", "9007199254740992", "9007199254740993", "9007199254740994", "9007199254740995",
	"9007199254740993.0000000000001", "9007199254740992.9999999999999", "9007199254740993e-5", "90071992547409930e-1",
	"18014398509481985", "18014398509481986", "18014398509481987", "18446744073709551615", "18446744073709551616",
	// Halfway between 1 and its successor, exactly, and cut at 19 and 20 digits.
	"1.00000000000000011102230246251565404236316680908203125", "1.000000000000000111", "1.0000000000000001110",
	"1.00000000000000011102230246251565404236316680908203124", "1.00000000000000011102230246251565404236316680908203126",
	// 19-, 20- and 25-digit mantissas, with and without non-zero digits past the 19th.
	"1234567890123456789", "9999999999999999999", "12345678901234567890", "12345678901234567891", "99999999999999999999",
	"1234567890123456789012345", "1234567890123456789000000", "1234567890123456789000001", "0.1234567890123456789000001",
	"0.000000000000000000001234567890123456789012345", "123456789012345678.90123456789", "1.2345678901234567890000e300",
	// Ties at 2^67 + 2^14 and 2^63 + 2^10 that only a dropped digit breaks.
	"147573952589676429312", "147573952589676429313", "9223372036854776832.0000000", "9223372036854776832.0000001",
	// Leading zeros.
	"0.000001", "0.0000000000000000000000000000000001234", "-0.00000000000000000000000000000000000000000000000000000000000000000000001",
	// The exponent at and past the power table's edges, and long exponent digit runs.
	"1e64", "1e65", "1e-64", "1e-65", "9.999999999999999e63", "1.5e-64", "123456789e-73", "123456789e56", "1e22", "1e23", "1e-22", "1e-23",
	"1e+00000000000000000001", "1e-00000000000000000001", "1e000000000000000000000000000000000000022", "-1e0000000000000000000000000000000000000308",
	"1e9999", "1e10000", "1e99999", "1e100000", "1e-100000", "0.1e99999999999999999999", "1" + strings.Repeat("0", 400) + "e-400",
	"1" + strings.Repeat("0", 330), "0." + strings.Repeat("0", 330) + "1", "1" + strings.Repeat("0", 10050) + "e-10050",
	// Exponents past ParseFloat's saturated count, balanced by as many
	// integer digits: its count decides (0), not the written one (1.23…).
	"1" + strings.Repeat("0", 100500) + "e-100500", "1234567890123456789" + strings.Repeat("0", 99982) + "e-100000",
	// Subnormals, the normal and finite limits, and past them.
	"4.9406564584124654e-324", "5e-324", "2.4703282292062327e-324", "2.4703282292062328e-324", "1e-323", "1e-320",
	"2.2250738585072011e-308", "2.2250738585072012e-308", "2.2250738585072014e-308", "2.225073858507201136057409796709131975934819546351645648e-308",
	"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308", "-1.7976931348623157e308",
	"1e400", "1e-400", "-1e400", "-1e-400", "1e309", "1e-324",
}

// TestWireNumberMatchesParseFloat holds the scanner to ParseFloat on the
// edge cases and on random renderings: 'g', 'f' and 'e' forms of uniform,
// any-bits and widely scaled values, and random digit strings with
// exponents on both sides of every table.
func TestWireNumberMatchesParseFloat(t *testing.T) {
	for _, s := range wireNumberCases {
		checkNumber(t, s)
	}
	rng := rand.New(rand.NewSource(53))
	for k := 0; k < 50000 && !t.Failed(); k++ {
		var vals [3]float64
		vals[0] = rng.Float64() * 200
		for {
			vals[1] = math.Float64frombits(rng.Uint64())
			if !math.IsNaN(vals[1]) && !math.IsInf(vals[1], 0) {
				break
			}
		}
		vals[2] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(81)-40))
		for _, v := range vals {
			for _, form := range []byte{'g', 'f', 'e'} {
				prec := -1
				if rng.Intn(2) == 0 {
					prec = rng.Intn(25)
				}
				checkNumber(t, strconv.FormatFloat(v, form, prec, 64))
			}
		}
		checkNumber(t, randomDigits(rng))
	}
}

// randomDigits renders a random 1–25-digit mantissa, the point anywhere in
// it or absent, with an exponent up to ±350 or none.
func randomDigits(rng *rand.Rand) string {
	var sb strings.Builder
	if rng.Intn(2) == 0 {
		sb.WriteByte('-')
	}
	digits := make([]byte, 1+rng.Intn(25))
	for k := range digits {
		digits[k] = byte('0' + rng.Intn(10))
	}
	if rng.Intn(4) == 0 { // a run of zeros past the 19th digit
		for k := 19; k < len(digits); k++ {
			digits[k] = '0'
		}
	}
	switch point := rng.Intn(len(digits) + 1); {
	case point == 0 || point == len(digits):
		digits[0] = byte('1' + rng.Intn(9))
		if point == 0 && len(digits) > 1 {
			sb.WriteString("0.")
		}
		sb.Write(digits)
	default:
		digits[0] = byte('1' + rng.Intn(9))
		sb.Write(digits[:point])
		sb.WriteByte('.')
		sb.Write(digits[point:])
	}
	if rng.Intn(3) > 0 {
		sb.WriteString([]string{"e", "E", "e+", "e-", "E-"}[rng.Intn(5)])
		sb.WriteString(strconv.Itoa(rng.Intn(351)))
	}
	return sb.String()
}

// The RFC 8259 number, as a reference for the scanner's grammar. The loose
// form is how far a scanner that commits on '.' and 'e' reads; the number
// is valid when what it read is the strict form.
var (
	looseNumber  = regexp.MustCompile(`^-?(?:0|[1-9][0-9]*)(?:\.[0-9]*)?(?:[eE][+-]?[0-9]*)?`)
	strictNumber = regexp.MustCompile(`^-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?$`)
)

// FuzzWireNumber holds the scanner, on arbitrary bytes, to the grammar
// reference (the same accept or reject, the same end offset) and, on a
// number, to ParseFloat's value or range error.
func FuzzWireNumber(f *testing.F) {
	for _, s := range wireNumberCases {
		if len(s) < 1000 {
			f.Add([]byte(s))
		}
	}
	for _, s := range []string{"", "-", "+1", ".5", "1.", "1.e5", "01", "-01", "1e", "1e+", "1E-x", "0x1p-2", "Inf", "NaN", "1_0", "1.5.3", "1,2", "2]", " 1", "1 "} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		got, end, err := scanNumber(b)
		m := looseNumber.FindIndex(b)
		if m == nil || !strictNumber.Match(b[:m[1]]) {
			if err == nil || errors.Is(err, strconv.ErrRange) {
				t.Fatalf("%q: accepted (end %d, err %v), the grammar refuses it", b, end, err)
			}
			return
		}
		if end != m[1] {
			t.Fatalf("%q: scanned to %d, the number ends at %d (err %v)", b, end, m[1], err)
		}
		want, wantErr := strconv.ParseFloat(string(b[:end]), 64)
		switch {
		case wantErr != nil:
			if !errors.Is(err, strconv.ErrRange) {
				t.Fatalf("%q: err %v, ParseFloat's %v", b, err, wantErr)
			}
		case err != nil || math.Float64bits(got) != math.Float64bits(want):
			t.Fatalf("%q: %v (err %v), ParseFloat %v", b, got, err, want)
		}
	})
}

// TestWireNumberAllocations pins the decode's allocations: a warm_serve
// body costs what it did before the scanner (28), and numbers that only
// ParseFloat decides — over 32 bytes, past any stack buffer — cost nothing
// per number either.
func TestWireNumberAllocations(t *testing.T) {
	decode := func(body []byte) float64 {
		return testing.AllocsPerRun(10, func() {
			var req EnergyRequest
			if err := req.UnmarshalJSON(body); err != nil {
				t.Fatal(err)
			}
		})
	}
	if got := decode(warmBody(t)); got > 28 {
		t.Errorf("warm body: %v allocations per decode, want at most 28", got)
	}
	rows := func(num string) []byte {
		row := "[" + strings.Repeat(num+",", 4) + num + "]"
		return []byte(`{"molecule":{"atoms":[` + strings.Repeat(row+",", 199) + row + `]}}`)
	}
	short, long := decode(rows("1.5")), decode(rows("1.50000000000000000000000000000000000001"))
	if long != short {
		t.Errorf("1 000 fallback numbers: %v allocations per decode, %v for short ones", long, short)
	}
}
