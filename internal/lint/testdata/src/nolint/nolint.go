// Package nolint is the golden fixture for the //jem:nolint
// suppression syntax: a named suppression silences exactly that
// analyzer on its own line or the line below; naming the wrong
// analyzer silences nothing; the bare form silences everything.
package nolint

import "os"

func suppressedTrailing(f *os.File) {
	f.Close() //jem:nolint(errsink)
}

func suppressedLeading(f *os.File) {
	//jem:nolint(errsink)
	f.Close()
}

func suppressedBlanket(f *os.File) {
	f.Close() //jem:nolint
}

func suppressedList(f *os.File) {
	f.Close() //jem:nolint(spanend, errsink)
}

func wrongAnalyzer(f *os.File) {
	f.Close() //jem:nolint(spanend) // want `error from f\.Close is discarded`
}

func unsuppressed(f *os.File) {
	f.Close() // want `error from f\.Close is discarded`
}
