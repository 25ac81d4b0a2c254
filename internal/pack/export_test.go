package pack

// FormBLEs exposes BLE formation to the external tests.
var FormBLEs = formBLEs
