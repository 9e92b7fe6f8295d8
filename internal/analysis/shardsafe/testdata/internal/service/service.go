// Package service checks the go rule's scope: it covers the engine
// packages (internal/logic, internal/system) only.
package service

// ServeAsync may start goroutines freely: the rule does not apply outside
// the engine.
func ServeAsync(run func()) {
	go run()
}
