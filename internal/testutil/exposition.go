package testutil

import (
	"strconv"
	"strings"
)

// Samples parses a Prometheus text exposition into its sample values keyed
// by the series as rendered ("name{labels}"), for tests that hold /metrics
// to another view of the same counters. Comment lines are skipped.
func Samples(body string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}
