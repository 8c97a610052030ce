package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// event is one trace-event row; ts and dur stay json.Number so the fixed
// three-decimal microsecond encoding round-trips to nanoseconds exactly.
type event struct {
	Ph   string          `json:"ph"`
	Cat  string          `json:"cat"`
	ID   string          `json:"id"`
	Pid  int             `json:"pid"`
	Tid  int             `json:"tid"`
	Ts   json.Number     `json:"ts"`
	Dur  json.Number     `json:"dur"`
	Name string          `json:"name"`
	Args json.RawMessage `json:"args"`
}

type traceFile struct {
	TraceEvents []event `json:"traceEvents"`
}

// runTrace validates and summarizes the Chrome trace-event JSON files
// written by pgti train -trace, pgti serve -trace, and pgti.WriteTrace,
// without needing a browser. It checks the structural contract Perfetto
// relies on — well-formed traceEvents, known phases, non-negative
// durations, per-thread timestamp monotonicity, proper nesting of complete
// ("X") spans on each thread, and balanced async begin/end ("b"/"e") pairs —
// then prints per-category span totals and the recorded counters and gauges.
func runTrace(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("trace", " <trace.json>  (or - for stdin)", stderr)
	quiet := fs.Bool("q", false, "validate only, print nothing on success")
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}

	var r io.Reader = os.Stdin
	name := fs.Arg(0)
	if name != "-" {
		f, err := os.Open(name)
		if err != nil {
			fmt.Fprintf(stderr, "pgti trace: %v\n", err)
			return 1
		}
		defer f.Close()
		r = f
	}

	tf, err := parse(r)
	if err != nil {
		fmt.Fprintf(stderr, "pgti trace: %s: %v\n", name, err)
		return 1
	}
	if errs := validate(tf.TraceEvents); len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintf(stderr, "pgti trace: %s: %v\n", name, e)
		}
		fmt.Fprintf(stderr, "pgti trace: %s: INVALID (%d problem(s))\n", name, len(errs))
		return 1
	}
	if !*quiet {
		summarize(stdout, tf.TraceEvents)
	}
	return 0
}

func parse(r io.Reader) (*traceFile, error) {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	var tf traceFile
	if err := dec.Decode(&tf); err != nil {
		return nil, fmt.Errorf("not well-formed trace JSON: %w", err)
	}
	if tf.TraceEvents == nil {
		return nil, fmt.Errorf("no traceEvents array")
	}
	return &tf, nil
}

// ns converts a trace timestamp (microseconds, up to three decimals) to
// integer nanoseconds. The exporter's fixed "%d.%03d" encoding converts
// exactly; anything else falls back to float64.
func ns(n json.Number) (int64, error) {
	s := n.String()
	if s == "" {
		return 0, nil
	}
	neg := strings.HasPrefix(s, "-")
	if neg {
		s = s[1:]
	}
	intPart, frac, _ := strings.Cut(s, ".")
	if len(frac) <= 3 && !strings.ContainsAny(s, "eE") {
		for len(frac) < 3 {
			frac += "0"
		}
		hi, err1 := strconv.ParseInt(intPart, 10, 64)
		lo, err2 := strconv.ParseInt(frac, 10, 64)
		if err1 == nil && err2 == nil {
			v := hi*1000 + lo
			if neg {
				v = -v
			}
			return v, nil
		}
	}
	f, err := n.Float64() // carries its own sign
	if err != nil {
		return 0, err
	}
	return int64(f * 1000), nil
}

type thread struct{ pid, tid int }
type asyncKey struct {
	pid     int
	cat, id string
}

// validate checks the structural contract: known phases, non-negative
// durations, per-thread monotone timestamps, proper nesting of X spans on
// each thread, and balanced b/e pairs.
func validate(events []event) (errs []error) {
	fail := func(i int, format string, args ...any) {
		if len(errs) < 20 { // enough to diagnose, bounded output
			errs = append(errs, fmt.Errorf("event %d: %s", i, fmt.Sprintf(format, args...)))
		}
	}
	lastTs := make(map[thread]int64)
	open := make(map[thread][]int64) // stack of X-span end times
	async := make(map[asyncKey][]int64)
	for i, ev := range events {
		switch ev.Ph {
		case "M":
			if ev.Name == "" {
				fail(i, "metadata event without a name")
			}
		case "C":
			if ev.Name == "" || !strings.Contains(string(ev.Args), "value") {
				fail(i, "counter event %q without args.value", ev.Name)
			}
		case "X", "b", "e":
			ts, err := ns(ev.Ts)
			if err != nil {
				fail(i, "bad ts %q: %v", ev.Ts, err)
				continue
			}
			if ts < 0 {
				fail(i, "%s %q: negative ts %s", ev.Ph, ev.Name, ev.Ts)
			}
			th := thread{ev.Pid, ev.Tid}
			switch ev.Ph {
			case "X":
				// Monotone start times per thread; async pairs are exempt
				// (an "e" is written next to its "b" and may post-date
				// later begins — Chrome orders by ts, not file position).
				if prev, seen := lastTs[th]; seen && ts < prev {
					fail(i, "X %q: ts went backwards on pid %d tid %d (%dns after %dns)", ev.Name, ev.Pid, ev.Tid, ts, prev)
				}
				lastTs[th] = ts
				dur, err := ns(ev.Dur)
				if err != nil || dur < 0 {
					fail(i, "X %q: bad dur %q", ev.Name, ev.Dur)
					continue
				}
				// Retire finished spans, then require the new one to fit
				// inside whatever is still open — Chrome's per-thread
				// stack discipline.
				stack := open[th]
				for len(stack) > 0 && stack[len(stack)-1] <= ts {
					stack = stack[:len(stack)-1]
				}
				if len(stack) > 0 && ts+dur > stack[len(stack)-1] {
					fail(i, "X %q: [%d, %d) overlaps an open span ending at %d on pid %d tid %d",
						ev.Name, ts, ts+dur, stack[len(stack)-1], ev.Pid, ev.Tid)
				}
				open[th] = append(stack, ts+dur)
			case "b":
				k := asyncKey{ev.Pid, ev.Cat, ev.ID}
				async[k] = append(async[k], ts)
			case "e":
				k := asyncKey{ev.Pid, ev.Cat, ev.ID}
				stack := async[k]
				if len(stack) == 0 {
					fail(i, "e %q: no matching b for id %s", ev.Name, ev.ID)
					continue
				}
				if begin := stack[len(stack)-1]; ts < begin {
					fail(i, "e %q: ends at %dns before its b at %dns", ev.Name, ts, begin)
				}
				async[k] = stack[:len(stack)-1]
			}
		default:
			fail(i, "unknown phase %q", ev.Ph)
		}
	}
	for k, stack := range async {
		if len(stack) > 0 {
			errs = append(errs, fmt.Errorf("async id %s (cat %s, pid %d): %d unclosed b event(s)", k.id, k.cat, k.pid, len(stack)))
		}
	}
	return errs
}

func summarize(w io.Writer, events []event) {
	type catTotal struct {
		count int
		total int64 // ns, X spans only
	}
	cats := make(map[string]*catTotal)
	pids := make(map[int]bool)
	var spans, asyncs, counters int
	var metrics []string
	for _, ev := range events {
		switch ev.Ph {
		case "X", "b":
			pids[ev.Pid] = true
			ct := cats[ev.Cat]
			if ct == nil {
				ct = &catTotal{}
				cats[ev.Cat] = ct
			}
			ct.count++
			if ev.Ph == "X" {
				spans++
				if d, err := ns(ev.Dur); err == nil {
					ct.total += d
				}
			} else {
				asyncs++
			}
		case "C":
			counters++
			var args struct {
				Value int64 `json:"value"`
			}
			json.Unmarshal(ev.Args, &args)
			metrics = append(metrics, fmt.Sprintf("  %-28s %d", ev.Name, args.Value))
		}
	}
	fmt.Fprintf(w, "valid trace: %d events | %d complete spans, %d async spans across %d workers\n",
		len(events), spans, asyncs, len(pids))
	names := make([]string, 0, len(cats))
	for c := range cats {
		names = append(names, c)
	}
	sort.Strings(names)
	if len(names) > 0 {
		fmt.Fprintf(w, "%-12s %8s %14s\n", "category", "spans", "total")
		for _, c := range names {
			fmt.Fprintf(w, "%-12s %8d %14v\n", c, cats[c].count, time.Duration(cats[c].total))
		}
	}
	if len(metrics) > 0 {
		fmt.Fprintln(w, "metrics:")
		sort.Strings(metrics)
		for _, m := range metrics {
			fmt.Fprintln(w, m)
		}
	}
}
