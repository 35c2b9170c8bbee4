package protocol

// ServeOn lets the external tests serve on a listener of their own, one
// that counts the reads and writes of the connections it accepts.
var ServeOn = serveOn
