package coro

// This file is the statically dispatched form of the Listing 7 scheduler:
// what the C++ compiler leaves of runInterleaved once it has flattened
// the coroutine frames and resolved every resume at compile time. The
// Handle schedulers (sched.go, drain.go) pay two interface calls and a
// bound method value per resume, which on a beyond-cache binary search
// costs more than the stalls interleaving hides; DrainFlat resumes frame
// structs held by value in one flat slice through their concrete Step
// method, so a resume is one call and the frames of a group sit next to
// each other in memory. The serving drains (internal/serve) run on it;
// the Handle schedulers stay for the backend ablations, where the
// coroutine implementation is the variable.

// FlatFrame constrains *F to a resumable frame: Step advances to the
// next suspension and reports (result, true) once the coroutine is done,
// as a Frame's step function does.
type FlatFrame[F, R any] interface {
	*F
	Step() (R, bool)
}

// FlatSlots is the scheduler state DrainFlat reuses across batches: one
// frame of type F per group slot, held by value. The zero value is ready
// to use and grows to the largest group it is asked for. Not safe for
// concurrent use: each shard owns one per frame type.
type FlatSlots[F any] struct {
	slots []flatSlot[F]
}

type flatSlot[F any] struct {
	frame F
	owner int // input index the frame is working on
}

// DrainFlat runs n lookups interleaved in groups of `group` (clamped to
// [1, n]) with the RunInterleavedSlots contract: start initialises the
// slot's frame in place for input i and reports whether it needs the
// scheduler at all — false declines the input (a dropped request, a key
// already answered at start time), which then occupies no slot and never
// reaches sink; the caller completes it through its own channel. sink
// receives each finished lookup's result keyed by input index, in
// interleaved completion order. start and sink are called once per
// input, not per resume, and are not retained.
//
//isi:hotpath
func DrainFlat[F, R any, P FlatFrame[F, R]](fs *FlatSlots[F], n, group int, start func(f *F, i int) bool, sink func(i int, r R)) {
	if n <= 0 {
		return
	}
	group = max(1, min(group, n))
	if len(fs.slots) < group {
		fs.slots = make([]flatSlot[F], group) //isi:allow-alloc(cap-guarded growth to a new max group size; steady state reuses)
	}
	next := 0
	live := 0
	for live < group && next < n {
		sl := &fs.slots[live]
		if start(&sl.frame, next) {
			sl.owner = next
			live++
		}
		next++
	}
	used := live
	// Every slot in slots holds a live frame: one that finishes takes the
	// next input that starts or, once the inputs are exhausted, is
	// overwritten by the last live frame, so the round-robin loop never
	// visits a dead slot.
	slots := fs.slots[:live]
	for len(slots) > 0 {
		for s := 0; s < len(slots); {
			sl := &slots[s]
			r, done := P(&sl.frame).Step()
			if !done {
				s++
				continue
			}
			sink(sl.owner, r)
			refilled := false
			for next < n && !refilled {
				refilled = start(&sl.frame, next)
				sl.owner = next
				next++
			}
			if refilled {
				s++
				continue
			}
			last := len(slots) - 1
			if s != last {
				*sl = slots[last]
			}
			slots = slots[:last]
		}
	}
	// Drop what the frames reference (a batch's columns, an epoch's
	// table) so it does not outlive the batch in an idle slot.
	clear(fs.slots[:used])
}
