package core

// SetPublishHook sets the function the committer runs between the ledger
// publishing a block and the engine indexing its cells (nil: none).
func SetPublishHook(f func()) { publishHook = f }
