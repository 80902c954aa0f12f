package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// childRun is one benchmark run made by the steadiness report.
type childRun struct {
	res    result
	digest string
}

// runChild runs this binary once and parses its result line and digest.
func runChild(o options, seed int64, traced bool) (childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(exe, "--workload", o.workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(o.seconds), "--trace", tr)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return childRun{}, fmt.Errorf("seed %d trace %s: %w\n%s", seed, tr, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var c childRun
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &c.res); err != nil {
		return childRun{}, fmt.Errorf("seed %d: result line: %w", seed, err)
	}
	for _, l := range strings.Split(stderr.String(), "\n") {
		if d, ok := strings.CutPrefix(l, "digest "); ok {
			c.digest = d
		}
	}
	return c, nil
}

// benchBounds reads each end-to-end metric's bound from BENCHMARK.json in
// the working directory; a missing file leaves every bound unknown.
func benchBounds() map[string]float64 {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil
	}
	var b struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(data, &b) != nil {
		return nil
	}
	out := map[string]float64{}
	for _, m := range b.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}

// steadyReport runs the workload n times on seeds seed..seed+n-1 and
// prints, per end-to-end metric, the median, quartiles and spread (the
// interquartile distance as a share of the median), flagging any spread
// beyond the metric's bound (setup_s is exempt: its spread is not gated,
// only its median). It then reruns the first seed to check the output
// digest repeats, and makes two traced runs of it to report which counts
// repeat exactly.
func steadyReport(o options, n int) int {
	var runs []childRun
	for i := 0; i < n; i++ {
		c, err := runChild(o, o.seed+int64(i), false)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pipebench: %v\n", err)
			return 1
		}
		runs = append(runs, c)
		fmt.Fprintf(os.Stderr, "run %d/%d seed %d done\n", i+1, n, o.seed+int64(i))
	}
	bounds := benchBounds()
	bad := 0
	var raw []string
	fmt.Printf("%s: %d runs, seeds %d..%d\n", o.workload, n, o.seed, o.seed+int64(n)-1)
	fmt.Printf("%-24s %14s %14s %14s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
	for _, d := range endToEnd {
		var values []float64
		for _, r := range runs {
			values = append(values, r.res.Metrics[d.name].Value)
		}
		q1, q2, q3 := quartiles(values)
		spread := (q3 - q1) / q2
		bound, known := bounds[d.name]
		flag := ""
		if known && d.name != "setup_s" && spread > bound {
			flag = "  SPREAD EXCEEDS BOUND"
			bad++
		}
		fmt.Printf("%-24s %14.6g %14.6g %14.6g %7.2f%% %5.0f%%%s\n", d.name+" ("+d.unit+")", q1, q2, q3, 100*spread, 100*bound, flag)
		raw = append(raw, fmt.Sprintf("%s: %v", d.name, values))
	}
	fmt.Printf("values by seed:\n  %s\n", strings.Join(raw, "\n  "))

	again, err := runChild(o, o.seed, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pipebench: %v\n", err)
		return 1
	}
	if again.digest != runs[0].digest {
		fmt.Printf("digest of seed %d: %s then %s  DIFFERS\n", o.seed, runs[0].digest, again.digest)
		bad++
	} else {
		fmt.Printf("digest of seed %d repeats: %s\n", o.seed, again.digest)
	}

	var traced [2]childRun
	for i := range traced {
		if traced[i], err = runChild(o, o.seed, true); err != nil {
			fmt.Fprintf(os.Stderr, "pipebench: %v\n", err)
			return 1
		}
	}
	var exact, varies []string
	for _, d := range perLayer {
		if d.unit != "count" {
			continue
		}
		a, b := traced[0].res.Metrics[d.name].Value, traced[1].res.Metrics[d.name].Value
		if a == b {
			exact = append(exact, fmt.Sprintf("%s=%g", d.name, a))
		} else {
			varies = append(varies, fmt.Sprintf("%s=%g/%g", d.name, a, b))
		}
	}
	fmt.Printf("counts repeating exactly over two traced runs: %s\n", strings.Join(exact, " "))
	fmt.Printf("counts that vary with timing: %s\n", strings.Join(varies, " "))
	if bad > 0 {
		return 1
	}
	return 0
}
