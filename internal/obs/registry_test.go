package obs

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestRegistryPrometheusRendering(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("octgb_test_seconds", `phase="born"`, "test latency")
	h.Observe(3 * time.Microsecond) // bucket 2, bound 4096ns
	c := r.Counter("octgb_test_total", "", "test counter")
	c.Add(7)
	r.GaugeFunc("octgb_test_gauge", `kind="q"`, "test gauge", func() float64 { return 2.5 })

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	for _, want := range []string{
		"# HELP octgb_test_seconds test latency\n",
		"# TYPE octgb_test_seconds histogram\n",
		`octgb_test_seconds_bucket{phase="born",le="1.024e-06"} 0` + "\n",
		`octgb_test_seconds_bucket{phase="born",le="4.096e-06"} 1` + "\n",
		`octgb_test_seconds_bucket{phase="born",le="+Inf"} 1` + "\n",
		`octgb_test_seconds_sum{phase="born"} 3e-06` + "\n",
		`octgb_test_seconds_count{phase="born"} 1` + "\n",
		"# TYPE octgb_test_total counter\n",
		"octgb_test_total 7\n",
		"# TYPE octgb_test_gauge gauge\n",
		`octgb_test_gauge{kind="q"} 2.5` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q\ngot:\n%s", want, out)
		}
	}

	// Buckets are cumulative: each le line's value must be ≥ the previous.
	var prev int64 = -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "octgb_test_seconds_bucket") {
			continue
		}
		var v int64
		if _, err := fmtSscan(line[strings.LastIndex(line, " ")+1:], &v); err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if v < prev {
			t.Errorf("bucket counts not cumulative at %q", line)
		}
		prev = v
	}

	if err := ValidateExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("own rendering fails validation: %v", err)
	}
}

// fmtSscan is a tiny strconv wrapper so the cumulative check stays local.
func fmtSscan(s string, v *int64) (int, error) {
	var err error
	*v, err = parseInt(s)
	return 1, err
}

func parseInt(s string) (int64, error) {
	var n int64
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, errNotDigit
		}
		n = n*10 + int64(c-'0')
	}
	return n, nil
}

var errNotDigit = &parseErr{}

type parseErr struct{}

func (*parseErr) Error() string { return "not a digit" }

func TestRegistryIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("octgb_x_seconds", `k="1"`, "h")
	b := r.Histogram("octgb_x_seconds", `k="1"`, "h")
	if a != b {
		t.Error("same (name,labels) should return the same histogram")
	}
	c := r.Histogram("octgb_x_seconds", `k="2"`, "h")
	if a == c {
		t.Error("different labels should return a different histogram")
	}
	c1 := r.Counter("octgb_y_total", "", "c")
	c1.Inc()
	if r.Counter("octgb_y_total", "", "c").Value() != 1 {
		t.Error("counter identity not preserved")
	}
}

func TestRegistryTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("octgb_z", "", "c")
	defer func() {
		if recover() == nil {
			t.Error("expected panic on re-registering counter as histogram")
		}
	}()
	r.Histogram("octgb_z", "", "h")
}

func TestRegistryHandler(t *testing.T) {
	r, shared := NewRegistry(), NewRegistry()
	r.Counter("octgb_req_total", "", "requests").Inc()
	shared.Counter("octgb_shared_total", "", "shared").Add(2)
	rec := httptest.NewRecorder()
	Handler(r, shared).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	body := rec.Body.String()
	if i, j := strings.Index(body, "octgb_req_total 1"), strings.Index(body, "octgb_shared_total 2"); i < 0 || j < i {
		t.Errorf("handler body does not render both registries in order:\n%s", body)
	}
	if err := ValidateExposition(strings.NewReader(body)); err != nil {
		t.Errorf("two registries render an invalid exposition: %v", err)
	}
}

func TestNilCounterSafe(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter value should be 0")
	}
	var real Counter
	real.Add(-3) // negative ignored
	if real.Value() != 0 {
		t.Error("negative Add should be ignored")
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	bad := []string{
		"2bad_name 1\n",                            // name starts with digit
		"ok_name\n",                                // missing value
		"ok_name notanumber\n",                     // bad value
		`ok_name{l="v} 1` + "\n",                   // unterminated label value
		`ok_name{l=v} 1` + "\n",                    // unquoted label value
		`ok_name{="v"} 1` + "\n",                   // empty label name
		"# TYPE x flavor\n",                        // unknown type
		"# TYPE h histogram\nh_sum 1\nh_count 1\n", // histogram missing +Inf bucket
	}
	for _, in := range bad {
		if err := ValidateExposition(strings.NewReader(in)); err == nil {
			t.Errorf("expected rejection of %q", in)
		}
	}
	good := "# HELP m help text\n# TYPE m counter\nm{a=\"x\\\"y\",b=\"z\"} 1.5 1700000000\n\nplain_metric +Inf\n"
	if err := ValidateExposition(strings.NewReader(good)); err != nil {
		t.Errorf("valid exposition rejected: %v", err)
	}
}
