package stream

// ExportTestWorld hands the shared paper-house fixture to the external
// fleet tests (package stream_test), which drive fleetd.RunFleet.
var ExportTestWorld = testWorld
