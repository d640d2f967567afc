// Package scrape reads a running server's admin endpoints (internal/obs
// serves them) for the CLI and the benchmark smokes; the server does not
// link it.
package scrape

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// JSON decodes what an admin endpoint serves at url (/tracez, /slowz,
// /alertz, /healthz) into v.
func JSON(url string, v any) error {
	body, err := get(url)
	if err != nil {
		return err
	}
	defer body.Close()
	return json.NewDecoder(body).Decode(v)
}

// Metrics fetches a Prometheus text exposition (/metrics) into a
// series -> value map, each series named with its labels.
func Metrics(url string) (map[string]float64, error) {
	body, err := get(url)
	if err != nil {
		return nil, err
	}
	defer body.Close()
	raw, err := io.ReadAll(body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

func get(url string) (io.ReadCloser, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("%s returned %s", url, resp.Status)
	}
	return resp.Body, nil
}
