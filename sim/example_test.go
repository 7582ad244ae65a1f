package sim_test

import (
	"fmt"
	"time"

	"rfd/sim"
)

// Example schedules a few events and a cancelled timer on a kernel and
// drains it: events fire in virtual-time order with no wall-clock coupling.
func Example() {
	k := sim.NewKernel(sim.WithSeed(7))
	k.After(2*time.Second, "world", func() {
		fmt.Println(k.Now(), "world")
	})
	k.After(time.Second, "hello", func() {
		fmt.Println(k.Now(), "hello")
	})
	doomed := k.After(3*time.Second, "never", func() {
		fmt.Println("never printed")
	})
	k.Cancel(doomed)
	if err := k.Run(); err != nil {
		fmt.Println("error:", err)
	}
	fmt.Println("executed:", k.Executed())
	// Output:
	// 1s hello
	// 2s world
	// executed: 2
}
