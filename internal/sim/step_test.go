package sim

// Step fires the earliest pending event and reports false when none
// remain. Production drives the engine through Run; the scheduler
// tests and benchmarks step it one event at a time.
func (e *Engine) Step() bool {
	if e.wheel.len() == 0 {
		return false
	}
	at, seq, fn, _ := e.wheel.popAtMost(Never)
	if at < e.now {
		panic("sim: time went backwards")
	}
	e.now = at
	e.events++
	e.firing = seq
	fn()
	e.firing = noEvent
	return true
}
