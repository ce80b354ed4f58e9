package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"time"
)

// On a shared virtual machine the hypervisor now and then runs another
// guest while one of this guest's CPUs is ready to run; Linux counts that
// time per CPU as "steal" in /proc/stat. It comes and goes with the
// neighbours' load, not with the program, and on a 2-CPU box it moved whole
// runs of the same job by up to 50%. Every end-to-end timing of the
// benchmark is therefore wall time minus the time stolen meanwhile: what
// the job took on the CPU time it was actually given. Where no steal is
// reported (bare metal, other systems) the timings are plain wall time.

// stealTick is the unit of /proc/stat counters (USER_HZ, fixed at 100 on
// Linux).
const stealTick = 10 * time.Millisecond

// stealMark holds every CPU's steal counter at one instant.
type stealMark []int64

// readSteal reads the per-CPU steal counters (nil when unavailable).
func readSteal() stealMark {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return nil
	}
	defer f.Close()
	var m stealMark
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fs := strings.Fields(sc.Text())
		if len(fs) < 9 || !strings.HasPrefix(fs[0], "cpu") || fs[0] == "cpu" {
			continue
		}
		v, err := strconv.ParseInt(fs[8], 10, 64)
		if err != nil {
			return nil
		}
		m = append(m, v)
	}
	return m
}

// stolen is the most time any one CPU lost since m. The ranks of a job
// meet at every superstep barrier, so one stalled CPU stalls the job.
func (m stealMark) stolen() time.Duration {
	now := readSteal()
	if len(now) != len(m) {
		return 0
	}
	var worst int64
	for i := range m {
		worst = max(worst, now[i]-m[i])
	}
	return time.Duration(worst) * stealTick
}

// clock measures wall time minus stolen time.
type clock struct {
	mark stealMark
	t0   time.Time
}

func newClock() clock { return clock{readSteal(), time.Now()} }

// elapsed returns the time since the start less the time stolen meanwhile.
// The counters tick in 10 ms steps, so a steal reading larger than the
// wall time (a short job straddling a tick) leaves the wall time as is.
func (c clock) elapsed() time.Duration {
	d := time.Since(c.t0)
	if s := c.mark.stolen(); s < d {
		d -= s
	}
	return d
}

// stolenShare is the share of all CPUs' time since c started that the host
// stole, for the run's diagnostics.
func (c clock) stolenShare() float64 {
	now := readSteal()
	if len(now) != len(c.mark) || len(now) == 0 {
		return 0
	}
	var sum int64
	for i := range now {
		sum += now[i] - c.mark[i]
	}
	return float64(time.Duration(sum)*stealTick) / float64(time.Since(c.t0)*time.Duration(len(now)))
}
