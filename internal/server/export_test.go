package server

// ReadJSON is the server's request body decoder, for the external tests.
var ReadJSON = readJSON
