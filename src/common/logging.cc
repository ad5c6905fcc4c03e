#include "common/logging.h"

#include <cstdio>
#include <cstdlib>
#include <iostream>

namespace rif {
namespace log_detail {

void
emit(const char *level, const std::string &msg)
{
    std::fprintf(stderr, "[%s] %s\n", level, msg.c_str());
    std::fflush(stderr);
}

void
exitFatal()
{
    std::cout.flush();
    std::fflush(nullptr);
    std::_Exit(1);
}

} // namespace log_detail
} // namespace rif
