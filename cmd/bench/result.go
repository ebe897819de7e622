package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// measured is one metric as the result file keeps it: the value, its unit
// and how many samples the value summarises.
type measured struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// metricSet keeps metrics in emission order, so the printed table reads in
// the order the layers are listed.
type metricSet struct {
	names []string
	byKey map[string]measured
}

func newMetricSet() *metricSet { return &metricSet{byKey: map[string]measured{}} }

func (m *metricSet) set(name, unit string, value float64, samples int) {
	if _, dup := m.byKey[name]; !dup {
		m.names = append(m.names, name)
	}
	m.byKey[name] = measured{Value: value, Unit: unit, Samples: samples}
}

// MarshalJSON writes the metrics as one object in emission order.
func (m *metricSet) MarshalJSON() ([]byte, error) {
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range m.names {
		if i > 0 {
			b.WriteByte(',')
		}
		k, _ := json.Marshal(n)
		v, err := json.Marshal(m.byKey[n])
		if err != nil {
			return nil, fmt.Errorf("metric %s: %w", n, err)
		}
		b.Write(k)
		b.WriteByte(':')
		b.Write(v)
	}
	b.WriteByte('}')
	return []byte(b.String()), nil
}

func (m *metricSet) UnmarshalJSON(data []byte) error {
	m.byKey = map[string]measured{}
	if err := json.Unmarshal(data, &m.byKey); err != nil {
		return err
	}
	m.names = m.names[:0]
	for n := range m.byKey {
		m.names = append(m.names, n)
	}
	sort.Strings(m.names) // a JSON object has no order to recover
	return nil
}

// passResult is the outcome of one pass (end-to-end or traced) of one
// workload.
type passResult struct {
	Attempted int        `json:"attempted"`
	Failed    int        `json:"failed"`
	Correct   bool       `json:"correct"`
	Invalid   []string   `json:"invalid,omitempty"` // run-validity checks that failed
	Metrics   *metricSet `json:"metrics"`
}

// contractLine is the last line of standard output, in the shape the
// benchmark driver parses.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *passResult) line() contractLine {
	l := contractLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]contractMetric{}}
	for _, n := range r.Metrics.names {
		m := r.Metrics.byKey[n]
		l.Metrics[n] = contractMetric{Value: m.Value, Unit: m.Unit}
	}
	return l
}

// finish settles Correct from the failure count, the validity checks and
// the metric values (a non-finite metric is a harness defect, never a
// result).
func (r *passResult) finish() {
	for _, n := range r.Metrics.names {
		if v := r.Metrics.byKey[n].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			r.Invalid = append(r.Invalid, fmt.Sprintf("metric %s is not finite", n))
		}
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0 && len(r.Invalid) == 0
}

// header is the honesty header of every result: what the numbers were
// measured on, so a one-core or pure-Go run is never mistaken for the
// reference configuration.
type header struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	P          int     `json:"P"`
	GoVersion  string  `json:"go_version"`
	GOARCH     string  `json:"goarch"`
	CPUPath    string  `json:"cpu_path"` // "avx2+fma", "pure-go" or "unknown"
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      string  `json:"scale"`
	Commit     string  `json:"git_commit"`
}

func newHeader(cfg *config, scale string) header {
	return header{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		P:          cfg.p,
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		CPUPath:    cpuPath(),
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Scale:      scale,
		Commit:     gitCommit(),
	}
}

func (h header) print(w io.Writer) {
	fmt.Fprintf(w, "bench: nproc=%d gomaxprocs=%d P=%d %s/%s kernels=%s seed=%d seconds=%g scale=%s commit=%s\n",
		h.NProc, h.GOMAXPROCS, h.P, h.GoVersion, h.GOARCH, h.CPUPath, h.Seed, h.Seconds, h.Scale, h.Commit)
	if h.P < 2 {
		fmt.Fprintln(os.Stderr, "bench: WARNING: P < 2 — engine.par_speedup is withheld (reads 0); a one-core number is never presented as parallel")
	}
}

// cpuPath reports which near-field kernels internal/core dispatches to.
// core keeps its CPUID probe private, so the harness reads the same two
// feature bits from the kernel's view of the CPU.
func cpuPath() string {
	if runtime.GOARCH != "amd64" {
		return "pure-go"
	}
	buf, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, ln := range strings.Split(string(buf), "\n") {
		if !strings.HasPrefix(ln, "flags") {
			continue
		}
		has := map[string]bool{}
		for _, f := range strings.Fields(ln) {
			has[f] = true
		}
		if has["avx2"] && has["fma"] {
			return "avx2+fma"
		}
		return "pure-go"
	}
	return "unknown"
}

// gitCommit is the checked-out commit, or "none" outside a git checkout
// (the benchmark driver runs from an exported tree).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// runRecord is one invocation's record of one workload, as appended to the
// result file. Claim is always null: this benchmark claims no gain.
type runRecord struct {
	Header   header      `json:"header"`
	Workload string      `json:"workload"`
	Claim    *string     `json:"claim"`
	EndToEnd *passResult `json:"end_to_end,omitempty"`
	PerLayer *passResult `json:"per_layer,omitempty"`
}

// resultFile is the on-disk form: every run ever appended to the file.
type resultFile struct {
	Runs []runRecord `json:"runs"`
}

func (r *runRecord) print(w io.Writer) {
	for _, p := range []struct {
		title string
		res   *passResult
	}{{"end-to-end (tracing off)", r.EndToEnd}, {"per-layer (traced pass)", r.PerLayer}} {
		if p.res == nil {
			continue
		}
		fmt.Fprintf(w, "%s — %s: attempted=%d failed=%d correct=%v\n", r.Workload, p.title, p.res.Attempted, p.res.Failed, p.res.Correct)
		for _, inv := range p.res.Invalid {
			fmt.Fprintf(w, "  INVALID: %s\n", inv)
		}
		for _, n := range p.res.Metrics.names {
			m := p.res.Metrics.byKey[n]
			fmt.Fprintf(w, "  %-32s %14.6g %-8s n=%d\n", n, m.Value, m.Unit, m.Samples)
		}
	}
}

func readResults(path string) (resultFile, error) {
	var rf resultFile
	buf, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(buf, &rf); err != nil {
		return rf, fmt.Errorf("parse %s: %w", path, err)
	}
	return rf, nil
}

// appendRun adds the run to the file's list, creating the file (and its
// directory) on first use.
func appendRun(path string, run runRecord) error {
	rf, err := readResults(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	rf.Runs = append(rf.Runs, run)
	buf, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
