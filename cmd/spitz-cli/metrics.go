package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"spitz/internal/scrape"
)

// metricsCmd implements `spitz-cli metrics`: scrape the server's admin
// endpoint (/metrics) and render every series as an aligned terminal
// table. With -watch it redraws on an interval and annotates counters
// with their per-second rate since the previous scrape.
func metricsCmd(args []string) {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	admin := fs.String("admin", "127.0.0.1:7688", "server ops (admin) HTTP address")
	watch := fs.Duration("watch", 0, "redraw every interval with per-second counter rates (0 = scrape once)")
	filter := fs.String("filter", "", "show only series containing this substring")
	fs.Parse(args)

	url := "http://" + *admin + "/metrics"
	prev := map[string]float64{}
	var prevAt time.Time
	for {
		vals, err := scrape.Metrics(url)
		check(err)
		now := time.Now()
		if *watch > 0 {
			fmt.Print("\x1b[2J\x1b[H") // clear screen between redraws
			fmt.Printf("%s  @ %s  (every %s)\n\n", url, now.Format("15:04:05"), *watch)
		}
		renderMetrics(os.Stdout, vals, prev, now.Sub(prevAt), *filter)
		if *watch <= 0 {
			return
		}
		prev, prevAt = vals, now
		time.Sleep(*watch)
	}
}

func renderMetrics(w io.Writer, vals, prev map[string]float64, dt time.Duration, filter string) {
	names := make([]string, 0, len(vals))
	width := 0
	for name := range vals {
		if filter != "" && !strings.Contains(name, filter) {
			continue
		}
		names = append(names, name)
		if len(name) > width {
			width = len(name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		v := vals[name]
		fmt.Fprintf(w, "%-*s  %14s", width, name, formatMetric(name, v))
		base := strings.SplitN(name, "{", 2)[0]
		if p, ok := prev[name]; ok && dt > 0 && strings.HasSuffix(base, "_total") {
			fmt.Fprintf(w, "  %9.1f/s", (v-p)/dt.Seconds())
		}
		fmt.Fprintln(w)
	}
}

// formatMetric renders nanosecond latency series as human durations and
// everything else as plain numbers.
func formatMetric(name string, v float64) string {
	base := strings.SplitN(name, "{", 2)[0]
	if strings.HasSuffix(base, "_ns") || strings.HasSuffix(base, "_ns_sum") {
		return time.Duration(int64(v)).Round(100 * time.Nanosecond).String()
	}
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}
