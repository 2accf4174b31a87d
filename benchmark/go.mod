module flowbench

go 1.23

require flownet v0.0.0

replace flownet => ../
