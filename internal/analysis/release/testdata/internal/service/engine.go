package service

import (
	"errors"

	"kpa/internal/logic"
)

var errEmpty = errors.New("empty system")

// BuildIndex borrows through the imported Workers, whose ReleaseFunc fact
// makes its closure a borrow here too: clean.
func BuildIndex(g *logic.Engine, points int, build func(workers int)) {
	workers, release := g.Workers(points)
	defer release()
	build(workers)
}

// BuildIndexLeaky defers the release only after an early return.
func BuildIndexLeaky(g *logic.Engine, points int, build func(workers int)) error {
	workers, release := g.Workers(points)
	if points == 0 {
		return errEmpty // want `return without releasing the borrow from g\.Workers`
	}
	defer release()
	build(workers)
	return nil
}
