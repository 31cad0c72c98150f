// Positive fixture: a core package reaching for the wall clock.
package engine

import (
	"time"
	systime "time"
)

func now() float64 {
	t := time.Now() // want `time\.Now reads the wall clock`
	return float64(t.Unix())
}

func wait(d time.Duration) {
	time.Sleep(d)   // want `time\.Sleep blocks on the wall clock`
	<-time.After(d) // want `time\.After blocks on the wall clock`
}

func aliased() time.Duration {
	return systime.Since(systime.Now()) // want `systime\.Since reads the wall clock` `systime\.Now reads the wall clock`
}

func tickers() {
	_ = time.NewTicker(time.Second) // want `time\.NewTicker creates a wall-clock ticker`
	_ = time.NewTimer(time.Second)  // want `time\.NewTimer creates a wall-clock timer`
}

// Legal uses: durations, constants, conversions, and arithmetic carry no
// hidden clock state.
func legal(sec float64) time.Duration {
	d := time.Duration(sec * float64(time.Second))
	return d.Round(time.Millisecond)
}

// A local variable named like the package does not confuse the check
// into flagging method calls on it... but shadowing the import is not
// modelled; keep fixtures honest about the syntactic scope.
type clock struct{}

func (clock) Unix() int64 { return 0 }
