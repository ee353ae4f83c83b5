package server

// ReadJSON is the server's request body decoder, for the external tests.
var ReadJSON = readJSON

// DrainKilled is closed once the drain deadline has canceled the
// statements still running.
func DrainKilled(s *Server) <-chan struct{} { return s.killCtx.Done() }
