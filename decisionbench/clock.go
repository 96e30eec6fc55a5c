package main

import "time"

// The benchmark times real runs, so it reads the wall clock. These
// helpers are its only reads.

func wallNow() time.Time {
	//lint:allow walltime the benchmark times real runs
	return time.Now()
}

func wallSince(t time.Time) time.Duration { return wallNow().Sub(t) }

func wallSleep(d time.Duration) {
	//lint:allow walltime the open-loop generator and the drain wait in real time
	time.Sleep(d)
}
