package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. A nil *Counter is
// valid and its methods are no-ops.
type Counter struct {
	name, labels, help string
	v                  atomic.Int64
}

// Add increments the counter by n (negative n is ignored — counters only
// go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// gauge is a registered callback gauge: sampled at render time, so queue
// depths and cache occupancy need no write-path instrumentation.
type gauge struct {
	name, labels, help string
	f                  func() float64
}

// Registry holds named metrics and renders them in the Prometheus text
// exposition format. Metric identity is (name, labels): Histogram/Counter
// return the existing metric when called again with the same identity, so
// instrumented code can look metrics up at use sites without caching
// handles. All methods are safe for concurrent use.
type Registry struct {
	mu     sync.Mutex
	order  []string // family (base name) first-registration order
	hists  map[string]*Histogram
	counts map[string]*Counter
	gauges map[string]*gauge
	help   map[string]string // family → help (first registration wins)
	typ    map[string]string // family → prometheus type
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		hists:  make(map[string]*Histogram),
		counts: make(map[string]*Counter),
		gauges: make(map[string]*gauge),
		help:   make(map[string]string),
		typ:    make(map[string]string),
	}
}

// metricKey identifies one series inside a family.
func metricKey(name, labels string) string { return name + "{" + labels + "}" }

// registerFamily records the family's help/type on first sight and fails
// loudly on a name registered twice with different types (a programming
// error that would render invalid exposition).
func (r *Registry) registerFamily(name, help, promType string) {
	if t, ok := r.typ[name]; ok {
		if t != promType {
			panic(fmt.Sprintf("obs: metric %q registered as both %s and %s", name, t, promType))
		}
		return
	}
	r.typ[name] = promType
	r.help[name] = help
	r.order = append(r.order, name)
}

// Histogram returns the histogram for (name, labels), creating it on first
// use. name should end in _seconds (durations are rendered in seconds);
// labels is a raw Prometheus label list without braces (`phase="born"`),
// empty for none.
func (r *Registry) Histogram(name, labels, help string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := metricKey(name, labels)
	if h, ok := r.hists[key]; ok {
		return h
	}
	r.registerFamily(name, help, "histogram")
	h := &Histogram{name: name, labels: labels, help: help}
	r.hists[key] = h
	return h
}

// Counter returns the counter for (name, labels), creating it on first use.
func (r *Registry) Counter(name, labels, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := metricKey(name, labels)
	if c, ok := r.counts[key]; ok {
		return c
	}
	r.registerFamily(name, help, "counter")
	c := &Counter{name: name, labels: labels, help: help}
	r.counts[key] = c
	return c
}

// GaugeFunc registers a callback gauge sampled at render time. Re-registering
// the same (name, labels) replaces the callback.
func (r *Registry) GaugeFunc(name, labels, help string, f func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := metricKey(name, labels)
	if _, ok := r.gauges[key]; !ok {
		r.registerFamily(name, help, "gauge")
	}
	r.gauges[key] = &gauge{name: name, labels: labels, help: help, f: f}
}

// spliceLabels joins a metric's static labels with an extra label (the
// histogram le) into one brace block.
func spliceLabels(labels, extra string) string {
	switch {
	case labels == "" && extra == "":
		return ""
	case labels == "":
		return "{" + extra + "}"
	case extra == "":
		return "{" + labels + "}"
	}
	return "{" + labels + "," + extra + "}"
}

// formatSeconds renders a nanosecond quantity as seconds with full float64
// round-trip precision.
func formatSeconds(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e9, 'g', -1, 64)
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4): one # HELP / # TYPE header per family
// followed by all of its series, families in first-registration order,
// series within a family sorted by label set for deterministic output.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	order := append([]string(nil), r.order...)
	families := make(map[string][]func(bw *bufio.Writer))
	collect := func(name string, f func(bw *bufio.Writer)) {
		families[name] = append(families[name], f)
	}
	// Snapshot series lists under the lock; values are read at write time
	// (atomics / callbacks, both safe without the registry lock).
	type histEntry struct {
		key string
		h   *Histogram
	}
	var hists []histEntry
	for k, h := range r.hists {
		hists = append(hists, histEntry{k, h})
	}
	sort.Slice(hists, func(i, j int) bool { return hists[i].key < hists[j].key })
	for _, e := range hists {
		h := e.h
		collect(h.name, func(bw *bufio.Writer) { writeHistogram(bw, h) })
	}
	type countEntry struct {
		key string
		c   *Counter
	}
	var counts []countEntry
	for k, c := range r.counts {
		counts = append(counts, countEntry{k, c})
	}
	sort.Slice(counts, func(i, j int) bool { return counts[i].key < counts[j].key })
	for _, e := range counts {
		c := e.c
		collect(c.name, func(bw *bufio.Writer) {
			fmt.Fprintf(bw, "%s%s %d\n", c.name, spliceLabels(c.labels, ""), c.v.Load())
		})
	}
	type gaugeEntry struct {
		key string
		g   *gauge
	}
	var gauges []gaugeEntry
	for k, g := range r.gauges {
		gauges = append(gauges, gaugeEntry{k, g})
	}
	sort.Slice(gauges, func(i, j int) bool { return gauges[i].key < gauges[j].key })
	for _, e := range gauges {
		g := e.g
		collect(g.name, func(bw *bufio.Writer) {
			fmt.Fprintf(bw, "%s%s %s\n", g.name, spliceLabels(g.labels, ""),
				strconv.FormatFloat(g.f(), 'g', -1, 64))
		})
	}
	help := make(map[string]string, len(r.help))
	typ := make(map[string]string, len(r.typ))
	for k, v := range r.help {
		help[k] = v
	}
	for k, v := range r.typ {
		typ[k] = v
	}
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, fam := range order {
		if h := help[fam]; h != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", fam, sanitizeHelp(h))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", fam, typ[fam])
		for _, f := range families[fam] {
			f(bw)
		}
	}
	return bw.Flush()
}

// writeHistogram renders one histogram series: cumulative le buckets, sum
// in seconds, count.
func writeHistogram(bw *bufio.Writer, h *Histogram) {
	s := h.Snapshot()
	var cum uint64
	for i := 0; i < numFiniteBuckets; i++ {
		cum += s.Buckets[i]
		le := `le="` + formatSeconds(bucketBound(i)) + `"`
		fmt.Fprintf(bw, "%s_bucket%s %d\n", h.name, spliceLabels(h.labels, le), cum)
	}
	cum += s.Buckets[numFiniteBuckets]
	fmt.Fprintf(bw, "%s_bucket%s %d\n", h.name, spliceLabels(h.labels, `le="+Inf"`), cum)
	fmt.Fprintf(bw, "%s_sum%s %s\n", h.name, spliceLabels(h.labels, ""), formatSeconds(int64(s.Sum)))
	fmt.Fprintf(bw, "%s_count%s %d\n", h.name, spliceLabels(h.labels, ""), s.Count)
}

// sanitizeHelp keeps help text single-line per the exposition format.
func sanitizeHelp(s string) string {
	s = strings.ReplaceAll(s, "\\", `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// Handler returns an http.Handler serving regs in Prometheus text format,
// one after the other — the GET /metrics endpoint. A server renders its own
// registry, then the Observer's it shares with the engine; the two must
// not hold the same family.
func Handler(regs ...*Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		for _, r := range regs {
			_ = r.WritePrometheus(w) // a failed write is a scraper gone; nothing to tell it
		}
	})
}

// ---------------------------------------------------------------------------
// Exposition validation (the obs-smoke gate)
// ---------------------------------------------------------------------------

// ValidateExposition checks that r is well-formed Prometheus text format:
// every line is a comment (# HELP name text / # TYPE name type / plain #)
// or a sample `name{label="value",...} value [timestamp]` with a legal
// metric name, parseable labels and a parseable float value — and every
// family declared `# TYPE x histogram` carries its le="+Inf" bucket, _sum
// and _count series. Returns the first malformed line as an error.
// make obs-smoke scrapes a live epolserve /metrics through this.
func ValidateExposition(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	histFamilies := map[string]bool{}
	seenInf := map[string]bool{}
	seenSum := map[string]bool{}
	seenCount := map[string]bool{}
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := validateComment(line, histFamilies); err != nil {
				return fmt.Errorf("line %d: %w: %q", lineNo, err, line)
			}
			continue
		}
		name, err := validateSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %w: %q", lineNo, err, line)
		}
		switch {
		case strings.HasSuffix(name, "_bucket") && strings.Contains(line, `le="+Inf"`):
			seenInf[strings.TrimSuffix(name, "_bucket")] = true
		case strings.HasSuffix(name, "_sum"):
			seenSum[strings.TrimSuffix(name, "_sum")] = true
		case strings.HasSuffix(name, "_count"):
			seenCount[strings.TrimSuffix(name, "_count")] = true
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for fam := range histFamilies {
		if !seenInf[fam] || !seenSum[fam] || !seenCount[fam] {
			return fmt.Errorf("histogram family %q missing +Inf bucket, _sum or _count", fam)
		}
	}
	return nil
}

func validateComment(line string, histFamilies map[string]bool) error {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return nil // bare comment
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 3 || !validMetricName(fields[2]) {
			return fmt.Errorf("malformed HELP")
		}
	case "TYPE":
		if len(fields) != 4 || !validMetricName(fields[2]) {
			return fmt.Errorf("malformed TYPE")
		}
		switch fields[3] {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q", fields[3])
		}
		if fields[3] == "histogram" {
			histFamilies[fields[2]] = true
		}
	}
	return nil
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// validateSample parses one sample line and returns the metric name.
func validateSample(line string) (string, error) {
	// Metric name.
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' {
		i++
	}
	name := line[:i]
	if !validMetricName(name) {
		return "", fmt.Errorf("invalid metric name")
	}
	rest := line[i:]
	// Optional label block.
	if strings.HasPrefix(rest, "{") {
		end := strings.Index(rest, "}")
		if end < 0 {
			return "", fmt.Errorf("unterminated label block")
		}
		if err := validateLabels(rest[1:end]); err != nil {
			return "", err
		}
		rest = rest[end+1:]
	}
	if !strings.HasPrefix(rest, " ") {
		return "", fmt.Errorf("missing space before value")
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", fmt.Errorf("expected value [timestamp]")
	}
	if err := validateValue(fields[0]); err != nil {
		return "", err
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return "", fmt.Errorf("invalid timestamp")
		}
	}
	return name, nil
}

func validateValue(s string) error {
	switch s {
	case "+Inf", "-Inf", "NaN":
		return nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return fmt.Errorf("invalid value")
	}
	if math.IsInf(v, 0) && !strings.Contains(s, "Inf") {
		return fmt.Errorf("invalid value")
	}
	return nil
}

func validateLabels(s string) error {
	// label="value" pairs, comma separated, values with \" \\ \n escapes.
	for len(s) > 0 {
		eq := strings.Index(s, "=")
		if eq <= 0 || !validMetricName(strings.TrimSuffix(s[:eq], " ")) {
			return fmt.Errorf("invalid label name")
		}
		s = s[eq+1:]
		if !strings.HasPrefix(s, `"`) {
			return fmt.Errorf("unquoted label value")
		}
		s = s[1:]
		for {
			j := strings.IndexAny(s, `"\`)
			if j < 0 {
				return fmt.Errorf("unterminated label value")
			}
			if s[j] == '\\' {
				if j+1 >= len(s) {
					return fmt.Errorf("dangling escape")
				}
				s = s[j+2:]
				continue
			}
			s = s[j+1:]
			break
		}
		if s == "" {
			return nil
		}
		if !strings.HasPrefix(s, ",") {
			return fmt.Errorf("expected comma between labels")
		}
		s = s[1:]
	}
	return nil
}
